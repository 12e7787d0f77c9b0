package p2p

// Tests for interleaved join and leave transfers: end/succ updates are
// version-stamped pointer writes (setEndSucc), so a join stream and
// a leave absorption against the same node no longer exclude each other
// wholesale — they run concurrently and whichever publishes its pointer
// update second detects the conflict and resolves it cleanly.

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"condisc/internal/handoff"
	"condisc/internal/interval"
	"condisc/internal/store"
	"condisc/internal/telemetry"
)

// TestJoinPreparesAndCommitsDuringLeaveAbsorption freezes a leave
// absorption mid-stream at the predecessor and drives a complete join
// through the same predecessor while it is frozen. The old discipline
// refused the join's prepare outright ("node is absorbing a leave");
// now the prepare succeeds, the join commits first, and the resumed
// absorption detects under the mutex that the leaver is no longer the
// ring successor: it aborts itself at the leaver, whose Leave() returns
// a did-not-commit error and resumes serving. Nothing is lost: the ring
// closes over all three nodes and every key stays readable.
func TestJoinPreparesAndCommitsDuringLeaveAbsorption(t *testing.T) {
	const items = 200
	pred, _ := handoffHarness(t, 510, items, withHandoffTTL(30*time.Second))
	defer pred.Close()

	// The leaver joins with a tiny chunk budget so its leave stream back
	// to pred spans many frames — room to freeze the absorption mid-way.
	leaver, err := NewNode("127.0.0.1:0", 510, withChunkBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	defer leaver.Close()
	if err := leaver.StartJoin(pred.Addr(), rand.New(rand.NewPCG(511, 511))); err != nil {
		t.Fatal(err)
	}

	absorbPaused := make(chan struct{})
	absorbResume := make(chan struct{})
	var pauseOnce sync.Once
	hookHandoff(pred, func(chunk int) error {
		if chunk >= 1 {
			pauseOnce.Do(func() { close(absorbPaused) })
			<-absorbResume
		}
		return nil
	}, nil)

	leaveErr := make(chan error, 1)
	go func() { leaveErr <- leaver.Leave() }()
	<-absorbPaused

	if s := pred.core.Load().state; s != absorbing {
		t.Fatalf("pred is %s while the pull is frozen, want %s", s, absorbing)
	}

	// A joiner drives a COMPLETE join through pred while the absorption
	// is frozen: prepare (previously refused at this point), stream,
	// commit. Its point must land in pred's segment; a draw into the
	// leaver's segment is refused ("node is leaving") and retried at a
	// fresh point by StartJoin itself.
	joiner, err := NewNode("127.0.0.1:0", 510)
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if err := joiner.StartJoin(pred.Addr(), rand.New(rand.NewPCG(512, 512))); err != nil {
		t.Fatalf("join during frozen absorption: %v", err)
	}

	// The join moved pred's boundary; the resumed absorption must detect
	// it and abort, failing the leave.
	close(absorbResume)
	if err := <-leaveErr; err == nil {
		t.Fatal("leave committed although a join took the absorbed boundary; the absorption should have aborted")
	}
	// Leave() returns when pred's abort reaches the leaver; pred rolls its
	// promoted copies back only after that RPC, so wait for its absorber.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if pred.core.Load().state == serving {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pred's absorption still running 2 s after the leave resolved")
		}
	}

	for round := 0; round < 3; round++ {
		for _, n := range []*Node{pred, joiner, leaver} {
			if err := n.Stabilize(); err != nil {
				t.Fatalf("stabilize: %v", err)
			}
		}
	}
	if sum := pred.NumItems() + joiner.NumItems() + leaver.NumItems(); sum != items {
		t.Fatalf("items not conserved: %d + %d + %d != %d",
			pred.NumItems(), joiner.NumItems(), leaver.NumItems(), items)
	}
	for _, n := range []*Node{pred, joiner, leaver} {
		verifyAllKeys(t, n.Addr(), pred.HashFunc(), items, "after aborted absorption via "+n.Addr())
	}
	seen := map[string]bool{}
	addr := pred.Addr()
	for i := 0; i < 4; i++ {
		st, err := call(addr, request{Op: opState})
		if err != nil {
			t.Fatal(err)
		}
		seen[st.Addr] = true
		addr = st.SuccAddr
		if addr == pred.Addr() {
			break
		}
	}
	if len(seen) != 3 {
		t.Fatalf("ring closes over %d nodes, want 3 (%v)", len(seen), seen)
	}
}

// TestLeaveCompletesDuringJoinStream is the opposite interleaving: a join
// stream out of the owner is frozen mid-pull at the joiner, and the
// owner's successor leaves meanwhile. The old discipline made the leaver
// spin ("handoff in progress; retry") until the join resolved; now the
// absorption runs to completion while the join stream is still frozen —
// Leave returns nil on the FIRST attempt. The thawed join's commit is
// then refused definitively (its session was stamped with the pre-absorb
// ring version and its range is no longer the segment tail), and the
// joiner simply rejoins against the extended segment.
func TestLeaveCompletesDuringJoinStream(t *testing.T) {
	const items = 200
	owner, _ := handoffHarness(t, 530, items, withHandoffTTL(30*time.Second))
	defer owner.Close()

	leaverDir := t.TempDir()
	st, err := store.OpenLog(leaverDir+"/leaver", store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	leaver, err := NewNode("127.0.0.1:0", 530, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	defer leaver.Close()
	if err := leaver.StartJoin(owner.Addr(), rand.New(rand.NewPCG(531, 531))); err != nil {
		t.Fatal(err)
	}

	joinPaused := make(chan struct{})
	joinResume := make(chan struct{})
	var pauseOnce sync.Once
	joiner, err := NewNode("127.0.0.1:0", 530)
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	hookHandoff(joiner, func(chunk int) error {
		if chunk >= 1 {
			pauseOnce.Do(func() { close(joinPaused) })
			<-joinResume
		}
		return nil
	}, nil)
	joinErr := make(chan error, 1)
	// Seed chosen so the first draw lands in the owner's segment (the
	// leaver owns [0.92, 0.42) after its midpoint join): the join must
	// stream from the OWNER for the leave to interleave with it.
	rng := rand.New(rand.NewPCG(533, 533))
	go func() { joinErr <- joiner.StartJoin(owner.Addr(), rng) }()
	<-joinPaused

	if got := len(owner.sessions.Streaming()); got != 1 {
		t.Fatalf("owner has %d active sessions while the join is frozen, want 1", got)
	}

	// The leave must complete on the first attempt, with the join stream
	// still frozen at the owner.
	if err := leaver.Leave(); err != nil {
		t.Fatalf("leave during frozen join stream: %v", err)
	}

	// Thaw the join: its commit is stale (the absorption moved the
	// boundary) and must be refused definitively, not spun on retries.
	start := time.Now()
	close(joinResume)
	err = <-joinErr
	if err == nil {
		t.Fatal("stale join committed although a leave absorption moved the segment boundary")
	}
	// (Half of handoff's 40 × 250 ms budget for re-sending a Retry-refused commit.)
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("stale join took %v to resolve — it spun on retries instead of failing fast", waited)
	}

	// The joiner rejoins against the extended segment and succeeds.
	if err := joiner.StartJoin(owner.Addr(), rng); err != nil {
		t.Fatalf("rejoin after refused stale commit: %v", err)
	}

	for round := 0; round < 3; round++ {
		for _, n := range []*Node{owner, joiner} {
			if err := n.Stabilize(); err != nil {
				t.Fatalf("stabilize: %v", err)
			}
		}
	}
	if sum := owner.NumItems() + joiner.NumItems(); sum != items {
		t.Fatalf("items not conserved: %d + %d != %d", owner.NumItems(), joiner.NumItems(), items)
	}
	for _, n := range []*Node{owner, joiner} {
		verifyAllKeys(t, n.Addr(), owner.HashFunc(), items, fmt.Sprintf("after leave-during-join via %s", n.Addr()))
	}
}

// TestLeaveFailsFastWhenAbsorptionRollsBack: an absorption that fails
// locally at a LIVE predecessor (here: its staging path errors on the first
// chunk) must tell the leaver before rolling back. Without that the
// leaver's Leave() — refusing every Get and Put meanwhile — only learns of
// the failure when its own session TTL lapses.
func TestLeaveFailsFastWhenAbsorptionRollsBack(t *testing.T) {
	const items, ttl = 60, 2 * time.Second
	reg := telemetry.NewRegistry() // shared: the counters below are cluster-wide
	c, err := StartCluster(3, 550, withHandoffTTL(ttl), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl := c.Client(0)
	for i := 0; i < items; i++ {
		if _, err := cl.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i)), c.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	leaver := c.Nodes[1]
	if leaver.NumItems() == 0 {
		t.Fatal("test needs the leaver to own items: the failure is injected per streamed chunk")
	}
	_, _, predInfo, _ := ringState(leaver)
	for _, n := range c.Nodes {
		if n.Addr() == predInfo.Addr {
			hookHandoff(n, func(int) error { return fmt.Errorf("staging disk full") }, nil)
		}
	}

	start := time.Now()
	err = leaver.Leave()
	if err == nil || !strings.Contains(err.Error(), "resuming service") {
		t.Fatalf("Leave() = %v, want the did-not-commit error", err)
	}
	if took := time.Since(start); took > ttl/4 {
		t.Fatalf("Leave() took %v to learn of the rolled-back absorption — it waited out its session TTL (%v)", took, ttl)
	}
	// The leaver is a full member again, at once: it serves its own range
	// and nothing was lost or duplicated.
	verifyAllKeys(t, leaver.Addr(), c.Hash(), items, "right after the failed leave")
	sum := 0
	for _, n := range c.Nodes {
		sum += n.NumItems()
	}
	if sum != items {
		t.Fatalf("items not conserved after the rolled-back absorption: %d != %d", sum, items)
	}
	// aborts_total counts the one abort that ended a streaming session —
	// not a probe of a session nobody holds.
	if resp, err := call(leaver.Addr(), request{Op: opHandAbort, Session: 0xdead}); err != nil || resp.State != "unknown" {
		t.Fatalf("abort probe of an unknown session = %+v, %v", resp, err)
	}
	if got := leaver.met.handAborts.Value(); got != 1 {
		t.Fatalf("handoff_aborts_total = %d after one real abort and one probe, want 1", got)
	}
}

// beforeCommit runs do on the line to the sender just before a commit is
// sent.
type beforeCommit struct {
	handoff.Wire
	do func(w handoff.Wire)
}

func (w beforeCommit) Commit() (bool, error) {
	w.do(w.Wire)
	return w.Wire.Commit()
}

// TestAbsorbRefusesPutsUntilTheLeaverCommits: between publishing its
// extension and the leaver's commit, an absorbing predecessor must not ack
// a Put into the leaver's segment, because a refused commit rolls the
// absorbed range back out of its store. The leaver's session is aborted
// just before the commit; the Put must then read back from the leaver, or
// have been refused with a retry-class error.
func TestAbsorbRefusesPutsUntilTheLeaverCommits(t *testing.T) {
	const items = 60
	c, err := StartCluster(3, 570, withHandoffTTL(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl := c.Client(0)
	for i := 0; i < items; i++ {
		if _, err := cl.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i)), c.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	leaver := c.Nodes[1]
	x, end, predInfo, _ := ringState(leaver)
	seg := interval.Segment{Start: x, Len: uint64(end - x)}
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("late%d", i); seg.Contains(c.Hash()(k)) {
			key = k
		}
	}
	var pred *Node
	for _, n := range c.Nodes {
		if n.Addr() == predInfo.Addr {
			pred = n
		}
	}
	var putErr error
	pred.wrapWire = func(w handoff.Wire) handoff.Wire {
		return beforeCommit{w, func(w handoff.Wire) {
			if s := pred.core.Load().state; s != absorbingExtended {
				t.Errorf("pred is %s before the commit, want %s", s, absorbingExtended)
			}
			_, putErr = (&Client{Bootstrap: pred.Addr()}).Put(key, []byte("late"), c.Hash())
			w.Abort()
		}}
	}
	if err := leaver.Leave(); err == nil || !strings.Contains(err.Error(), "resuming service") {
		t.Fatalf("Leave() = %v, want the did-not-commit error", err)
	}
	for deadline := time.Now().Add(2 * time.Second); pred.core.Load().state != serving; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the absorption still unresolved 2 s after the leave failed")
		}
	}
	if putErr != nil {
		if !strings.Contains(putErr.Error(), "retry") {
			t.Fatalf("Put during the unresolved absorption failed with %v, want a retry-class refusal", putErr)
		}
	} else if v, _, err := cl.Get(key, c.Hash()); err != nil || string(v) != "late" {
		t.Fatalf("Put acked during the unresolved absorption reads back %q, %v", v, err)
	}
	verifyAllKeys(t, leaver.Addr(), c.Hash(), items, "after the refused absorption")
}
