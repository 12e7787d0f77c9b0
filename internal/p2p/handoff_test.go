package p2p

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"
	"time"

	"condisc/internal/handoff"
	"condisc/internal/interval"
	"condisc/internal/journal"
	"condisc/internal/store"
	"condisc/internal/telemetry"
)

// withHandoffTTL shrinks the receiver-silence deadline after which the
// node, as a handoff sender, aborts a streaming session and keeps its
// range (handoff.DefaultTTL otherwise), to exercise the expiry paths.
func withHandoffTTL(d time.Duration) NodeOption {
	return func(n *Node) { n.handoffTTL = d }
}

// withChunkBytes shrinks the per-frame byte budget of the node's outgoing
// handoff streams (handoff.DefaultChunkBytes otherwise), so a small range
// spans many frames.
func withChunkBytes(b int) NodeOption {
	return func(n *Node) { n.chunkBytes = b }
}

// hookWire wraps a node's line to the sender of an inbound session: chunk
// runs before each chunk of a stream connection is staged (i counts from
// 0 per connection), commit after the sender answered a commit. An error
// from either kills the receiver there with handoff.ErrInterrupted:
// nothing is rolled back, exactly as a dying process leaves it.
type hookWire struct {
	handoff.Wire
	chunk  func(i int) error
	commit func() error
}

func (w hookWire) Stream(resume bool, p interval.Point, key string, apply func([]store.Item) error) error {
	i := 0
	return w.Wire.Stream(resume, p, key, func(items []store.Item) error {
		if w.chunk != nil {
			if err := w.chunk(i); err != nil {
				return fmt.Errorf("%w: %v", handoff.ErrInterrupted, err)
			}
		}
		i++
		return apply(items)
	})
}

func (w hookWire) Commit() (bool, error) {
	retry, err := w.Wire.Commit()
	if err == nil && w.commit != nil {
		if herr := w.commit(); herr != nil {
			return false, fmt.Errorf("%w: %v", handoff.ErrInterrupted, herr)
		}
	}
	return retry, err
}

// hookHandoff wraps every inbound session of n in a hookWire.
func hookHandoff(n *Node, chunk func(i int) error, commit func() error) {
	n.wrapWire = func(w handoff.Wire) handoff.Wire { return hookWire{w, chunk, commit} }
}

// handoffHarness: a log-backed single-node network holding `items` keys,
// with a tiny chunk budget so a join transfer spans many frames.
func handoffHarness(t *testing.T, seed uint64, items int, ownerOpts ...NodeOption) (*Node, string) {
	t.Helper()
	ownerDir := filepath.Join(t.TempDir(), "owner")
	st, err := store.OpenLog(ownerDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]NodeOption{WithStore(st), withChunkBytes(256)}, ownerOpts...)
	owner, err := NewNode("127.0.0.1:0", seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	owner.StartFirst(interval.FromFloat(0.42))
	cl := &Client{Bootstrap: owner.Addr()}
	for i := 0; i < items; i++ {
		if _, err := cl.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i)), owner.HashFunc()); err != nil {
			t.Fatal(err)
		}
	}
	return owner, ownerDir
}

// verifyAllKeys asserts every key is retrievable through bootstrap and
// returns nothing missing.
func verifyAllKeys(t *testing.T, bootstrap string, h func(string) interval.Point, items int, when string) {
	t.Helper()
	cl := &Client{Bootstrap: bootstrap}
	for i := 0; i < items; i++ {
		key := fmt.Sprintf("k%03d", i)
		v, _, err := cl.Get(key, h)
		if err != nil {
			t.Fatalf("%s: get %s: %v", when, key, err)
		}
		if string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("%s: %s = %q", when, key, v)
		}
	}
}

// countLogItems reopens a WAL directory offline and returns its item count.
func countLogItems(t *testing.T, dir string) int {
	t.Helper()
	s, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return s.Len()
}

// TestJoinerKilledMidStreamThenResumes is the acceptance scenario for the
// handoff subsystem: a log-backed joiner dies mid-stream; afterwards
// exactly one node owns the range (the owner — ownership never flipped),
// no item is lost or duplicated, and a joiner restarted on the same
// address and data directory resumes the session from its staged prefix
// and completes the join. Durability is verified by reopening both WALs
// offline at the end.
func TestJoinerKilledMidStreamThenResumes(t *testing.T) {
	const items = 300
	owner, ownerDir := handoffHarness(t, 77, items)
	defer owner.Close()

	joinerDir := filepath.Join(t.TempDir(), "joiner")

	// First incarnation: dies after two staged chunks.
	st1, err := store.OpenLog(joinerDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := NewNode("127.0.0.1:0", 77, WithStore(st1))
	if err != nil {
		t.Fatal(err)
	}
	hookHandoff(j1, func(chunk int) error {
		if chunk >= 2 {
			return fmt.Errorf("kill -9")
		}
		return nil
	}, nil)
	if err := j1.StartJoin(owner.Addr(), rand.New(rand.NewPCG(78, 78))); err == nil {
		t.Fatal("killed joiner reported a successful join")
	}
	jAddr := j1.Addr()
	j1.Close() // the crash: no abort, no cleanup

	// Exactly one owner, nothing lost: the owner still serves all keys
	// from its own store (ownership never flipped), and the crashed
	// joiner's staging session survives on disk.
	if got := owner.NumItems(); got != items {
		t.Fatalf("after joiner crash the owner has %d items, want %d", got, items)
	}
	verifyAllKeys(t, owner.Addr(), owner.HashFunc(), items, "after joiner crash")
	staging, err := filepath.Glob(joinerDir + ".handoff-*")
	if err != nil || len(staging) != 1 {
		t.Fatalf("want exactly one staging dir, got %v (%v)", staging, err)
	}
	if n := countLogItems(t, staging[0]); n == 0 || n >= items {
		t.Fatalf("staging holds %d items, want a strict prefix of the range", n)
	}

	// Second incarnation on the same address + data directory: the
	// recovered session resumes from the staged prefix.
	st2, err := store.OpenLog(joinerDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := NewNode(jAddr, 77, WithStore(st2))
	if err != nil {
		t.Fatal(err)
	}
	if j2.recovered == nil {
		t.Fatal("restarted joiner did not recover the staging session")
	}
	if err := j2.StartJoin(owner.Addr(), rand.New(rand.NewPCG(79, 79))); err != nil {
		t.Fatalf("resumed join failed: %v", err)
	}

	// The range moved exactly once: counts are disjoint and conserved,
	// every key is served, the staging session is gone.
	if sum := owner.NumItems() + j2.NumItems(); sum != items {
		t.Fatalf("items not conserved after resume: owner %d + joiner %d != %d",
			owner.NumItems(), j2.NumItems(), items)
	}
	if j2.NumItems() == 0 {
		t.Fatal("resumed joiner owns no items; the transfer did not complete")
	}
	verifyAllKeys(t, owner.Addr(), owner.HashFunc(), items, "after resumed join")
	verifyAllKeys(t, j2.Addr(), owner.HashFunc(), items, "after resumed join via joiner")
	if left, _ := filepath.Glob(joinerDir + ".handoff-*"); len(left) != 0 {
		t.Fatalf("staging session not cleaned up: %v", left)
	}

	// Durability: reopen both WALs offline — the split survives restarts
	// with no item lost or present on both sides.
	ownerN, joinerN := owner.NumItems(), j2.NumItems()
	owner.Close()
	j2.Close()
	if n := countLogItems(t, ownerDir); n != ownerN {
		t.Fatalf("owner WAL reopened with %d items, want %d", n, ownerN)
	}
	if n := countLogItems(t, joinerDir); n != joinerN {
		t.Fatalf("joiner WAL reopened with %d items, want %d", n, joinerN)
	}
}

// TestDualCrashCommitRecordSurvivesRestart is the real-socket restart arm
// of the handoff fault coverage (internal/handoff's explorer covers every
// schedule of up to two faults in process). A log-backed joiner dies
// mid-stream; restarted on the same address and data directory it resumes
// after its staged prefix and dies again just after the owner's commit
// landed. Then the owner crashes too — the dual-crash corner: only its WAL
// and its commit log survive. The joiner, restarted once more, finds its
// stream refused by the restarted owner, which answers the abort that
// follows from the commit log with "committed"; the joiner promotes and
// adopts the range. Exactly one copy of every item survives, on disk too.
func TestDualCrashCommitRecordSurvivesRestart(t *testing.T) {
	const items = 300
	owner, ownerDir := handoffHarness(t, 77, items)
	joinerDir := filepath.Join(t.TempDir(), "joiner")
	joinerAddr := "127.0.0.1:0"
	// joiner starts an incarnation of the joiner on its address and data
	// directory; chunk and commit hook its inbound sessions.
	joiner := func(tel *telemetry.Registry, chunk func(int) error, commit func() error) *Node {
		st, err := store.OpenLog(joinerDir, store.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(joinerAddr, 77, WithStore(st), WithTelemetry(tel))
		if err != nil {
			t.Fatal(err)
		}
		joinerAddr = n.Addr()
		hookHandoff(n, chunk, commit)
		return n
	}
	// First incarnation: dies after two staged chunks. The owner still owns
	// and serves every item, and the staging holds a strict prefix.
	j1 := joiner(telemetry.NewRegistry(), func(chunk int) error {
		if chunk >= 2 {
			return fmt.Errorf("kill -9 mid-stream")
		}
		return nil
	}, nil)
	if err := j1.StartJoin(owner.Addr(), rand.New(rand.NewPCG(78, 78))); err == nil {
		t.Fatal("killed joiner reported a successful join")
	}
	j1.Close()
	if got := owner.NumItems(); got != items {
		t.Fatalf("after the joiner's crash the owner has %d items, want %d", got, items)
	}
	verifyAllKeys(t, owner.Addr(), owner.HashFunc(), items, "after the joiner's crash")
	staging, err := filepath.Glob(joinerDir + ".handoff-*")
	if err != nil || len(staging) != 1 {
		t.Fatalf("want exactly one staging dir, got %v (%v)", staging, err)
	}
	staged := countLogItems(t, staging[0])
	if staged == 0 || staged >= items {
		t.Fatalf("staging holds %d items, want a strict prefix of the range", staged)
	}

	// Second incarnation: resumes after the staged prefix and dies just
	// after the owner committed (range deleted there, commit recorded).
	tel := telemetry.NewRegistry()
	j2 := joiner(tel, nil, func() error { return fmt.Errorf("kill -9 after commit") })
	if j2.recovered == nil {
		t.Fatal("restarted joiner did not recover its staging session")
	}
	if err := j2.StartJoin(owner.Addr(), rand.New(rand.NewPCG(79, 79))); err == nil {
		t.Fatal("killed joiner reported a successful join")
	}
	j2.Close()
	ownerKept := owner.NumItems()
	if ownerKept == 0 || ownerKept >= items {
		t.Fatalf("owner kept %d items after commit, want a strict subset of %d", ownerKept, items)
	}
	if got := tel.Counter("condisc_p2p_handoff_items_in_total").Value(); got != int64(items-ownerKept-staged) {
		t.Fatalf("the resumed stream carried %d items, want the %d after the staged prefix", got, items-ownerKept-staged)
	}

	// The owner crashes too and restarts from its WAL and commit log.
	ownerPoint, _, _, _ := ringState(owner)
	oAddr := owner.Addr()
	owner.Close()
	ownerStore2, err := store.OpenLog(ownerDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	owner2, err := NewNode(oAddr, 77, WithStore(ownerStore2))
	if err != nil {
		t.Fatal(err)
	}
	defer owner2.Close()
	owner2.StartFirst(ownerPoint)
	if got := owner2.NumItems(); got != ownerKept {
		t.Fatalf("restarted owner replays %d items, want %d", got, ownerKept)
	}

	// Third incarnation: the restarted owner refuses the stream and its
	// commit log answers the abort with "committed".
	j3 := joiner(telemetry.NewRegistry(), nil, nil)
	defer j3.Close()
	if err := j3.StartJoin(owner2.Addr(), rand.New(rand.NewPCG(80, 80))); err != nil {
		t.Fatalf("dual-crash recovery join failed: %v", err)
	}
	if j3.NumItems() != items-ownerKept || owner2.NumItems() != ownerKept {
		t.Fatalf("owner %d + joiner %d items, want %d + %d", owner2.NumItems(), j3.NumItems(), ownerKept, items-ownerKept)
	}
	// The restarted owner booted as a singleton (StartFirst) and learns of
	// the joiner's range through stabilization, like any stale pointer.
	for round := 0; round < 3; round++ {
		for _, n := range []*Node{owner2, j3} {
			if err := n.Stabilize(); err != nil {
				t.Fatalf("stabilize: %v", err)
			}
		}
	}
	for _, n := range []*Node{owner2, j3} {
		verifyAllKeys(t, n.Addr(), owner2.HashFunc(), items, "after the dual-crash recovery via "+n.Addr())
	}
	if left, _ := filepath.Glob(joinerDir + ".handoff-*"); len(left) != 0 {
		t.Fatalf("staging session not cleaned up: %v", left)
	}

	// Durability: reopen both WALs offline — exactly one copy of every
	// item survives the restarts.
	oN, jN := owner2.NumItems(), j3.NumItems()
	owner2.Close()
	j3.Close()
	if n := countLogItems(t, ownerDir); n != oN {
		t.Fatalf("owner WAL reopened with %d items, want %d", n, oN)
	}
	if n := countLogItems(t, joinerDir); n != jN {
		t.Fatalf("joiner WAL reopened with %d items, want %d", n, jN)
	}
}

// TestJoinerKilledExpiredSessionAbortsCleanly: if the owner expires the
// session before the joiner returns, the restarted joiner's stream is
// refused, the abort that follows reads "unknown", and the joiner rolls
// its staging back and joins fresh — still exactly one copy of every item.
func TestJoinerKilledExpiredSessionAbortsCleanly(t *testing.T) {
	const items = 200
	owner, _ := handoffHarness(t, 91, items, withHandoffTTL(100*time.Millisecond))
	defer owner.Close()

	joinerDir := filepath.Join(t.TempDir(), "joiner")
	st, err := store.OpenLog(joinerDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := NewNode("127.0.0.1:0", 91, WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	hookHandoff(j1, func(chunk int) error {
		if chunk >= 1 {
			return fmt.Errorf("kill -9")
		}
		return nil
	}, nil)
	if err := j1.StartJoin(owner.Addr(), rand.New(rand.NewPCG(92, 92))); err == nil {
		t.Fatal("killed joiner reported a successful join")
	}
	jAddr := j1.Addr()
	j1.Close()

	time.Sleep(250 * time.Millisecond) // let the owner's session expire

	// The fence must have lifted: writes to the once-fenced range land.
	if _, err := (&Client{Bootstrap: owner.Addr()}).Put("post-expiry", []byte("x"), owner.HashFunc()); err != nil {
		t.Fatalf("put after session expiry: %v", err)
	}

	st2, err := store.OpenLog(joinerDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := NewNode(jAddr, 91, WithStore(st2))
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.StartJoin(owner.Addr(), rand.New(rand.NewPCG(93, 93))); err != nil {
		t.Fatalf("fresh join after clean abort failed: %v", err)
	}
	defer j2.Close()

	if sum := owner.NumItems() + j2.NumItems(); sum != items+1 {
		t.Fatalf("items not conserved after abort+rejoin: %d + %d != %d",
			owner.NumItems(), j2.NumItems(), items+1)
	}
	verifyAllKeys(t, j2.Addr(), owner.HashFunc(), items, "after abort and fresh join")
	if left, _ := filepath.Glob(joinerDir + ".handoff-*"); len(left) != 0 {
		t.Fatalf("aborted staging session not cleaned up: %v", left)
	}
}

// TestLeaveStreamsThroughDiskStaging: a leave between two log-backed
// nodes stages on the predecessor's disk, promotes, and cleans up; the
// leaver's WAL is empty on reopen (nothing replays) and the predecessor
// serves everything.
func TestLeaveStreamsThroughDiskStaging(t *testing.T) {
	const items = 150
	predDir := filepath.Join(t.TempDir(), "pred")
	predStore, err := store.OpenLog(predDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewNode("127.0.0.1:0", 55, WithStore(predStore), withChunkBytes(256), withHandoffTTL(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer pred.Close()
	pred.StartFirst(interval.FromFloat(0.1))

	leaverDir := filepath.Join(t.TempDir(), "leaver")
	leaverStore, err := store.OpenLog(leaverDir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	leaver, err := NewNode("127.0.0.1:0", 55, WithStore(leaverStore), withChunkBytes(256), withHandoffTTL(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := leaver.StartJoin(pred.Addr(), rand.New(rand.NewPCG(56, 56))); err != nil {
		t.Fatal(err)
	}
	cl := &Client{Bootstrap: pred.Addr()}
	for i := 0; i < items; i++ {
		if _, err := cl.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i)), pred.HashFunc()); err != nil {
			t.Fatal(err)
		}
	}
	if leaver.NumItems() == 0 {
		t.Fatal("test needs the leaver to own part of the range")
	}

	if err := leaver.Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got := pred.NumItems(); got != items {
		t.Fatalf("predecessor has %d items after absorb, want %d", got, items)
	}
	verifyAllKeys(t, pred.Addr(), pred.HashFunc(), items, "after streamed leave")
	if left, _ := filepath.Glob(predDir + ".handoff-*"); len(left) != 0 {
		t.Fatalf("predecessor staging not cleaned up: %v", left)
	}
	if n := countLogItems(t, leaverDir); n != 0 {
		t.Fatalf("leaver WAL replays %d handed-off items", n)
	}
}

// TestFencedPutRefusedDuringStream: while a join session is streaming, a
// put into the moving range is refused loudly instead of silently lost at
// commit.
func TestFencedPutRefusedDuringStream(t *testing.T) {
	owner, _ := handoffHarness(t, 33, 50)
	defer owner.Close()
	x, _, _, _ := ringState(owner)
	// The singleton owner covers the full circle; fence the quarter arc
	// opposite its start point (a session opened directly — no joiner
	// process needed to test the fence).
	mid := x + interval.Point(1)<<63
	if _, err := owner.sessions.Prepare(999, interval.Segment{Start: mid, Len: 1 << 62}, handoff.RoleJoin, handoff.Peer{}, 0); err != nil {
		t.Fatal(err)
	}
	resp := owner.handle(request{Op: opPut, Key: "fenced", Val: []byte("x"), Target: uint64(mid) + 1})
	if resp.OK || resp.Err == "" {
		t.Fatalf("put into a fenced range was accepted: %+v", resp)
	}
	// Outside the fence writes still land.
	resp = owner.handle(request{Op: opPut, Key: "free", Val: []byte("x"), Target: uint64(x) + 1})
	if !resp.OK {
		t.Fatalf("put outside the fence refused: %+v", resp)
	}
}

// TestHandoffTelemetryCountsBytesAndPrepares pins the two handoff series
// an operator divides: stream_bytes_total is what the stream put on the
// wire (frame headers, item records and the EOF frame — not the stream's
// checksum), and every session, a leave's as much as a join's, counts one
// prepare for its one commit. Each pass's hand_stream journal record
// carries the same byte count as C.
func TestHandoffTelemetryCountsBytesAndPrepares(t *testing.T) {
	const items = 200
	st := store.NewMem()
	ownerJrn, joinerJrn := journal.New(0), journal.New(0)
	owner, err := NewNode("127.0.0.1:0", 91, WithStore(st), WithTelemetry(telemetry.NewRegistry()), WithJournal(ownerJrn))
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	for i := 0; i < items; i++ {
		key := fmt.Sprintf("k%03d", i)
		if err := st.Put(owner.HashFunc()(key), key, []byte(fmt.Sprintf("value-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	owner.StartFirst(interval.FromFloat(0.3))
	joiner, err := NewNode("127.0.0.1:0", 91, WithTelemetry(telemetry.NewRegistry()), WithJournal(joinerJrn))
	if err != nil {
		t.Fatal(err)
	}
	// streamPass waits for the sender's one hand_stream record (written
	// just after its bytes are counted: the receiver can outrun both) and
	// checks that its C is the bytes counter's move since before.
	streamPass := func(name string, n *Node, jrn *journal.Journal, before int64) {
		t.Helper()
		var recs []journal.Record
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			recs = recs[:0]
			for _, rec := range jrn.Records() {
				if rec.Kind == journal.KindHandStream {
					recs = append(recs, rec)
				}
			}
			if len(recs) > 0 || time.Now().After(deadline) {
				break
			}
		}
		if len(recs) != 1 {
			t.Fatalf("%s: %d hand_stream records, want 1", name, len(recs))
		}
		if delta := n.met.handBytesOut.Value() - before; recs[0].C != uint64(delta) {
			t.Errorf("%s: hand_stream C = %d, stream_bytes_total moved %d", name, recs[0].C, delta)
		}
	}
	if err := joiner.StartJoin(owner.Addr(), rand.New(rand.NewPCG(92, 92))); err != nil {
		t.Fatal(err)
	}
	moved := int64(joiner.NumItems())
	if moved == 0 {
		t.Fatal("test needs the joiner to take part of the range")
	}
	// Per item: u64 point, u32 klen, 4-byte key, u32 vlen, 9-byte value;
	// per frame an 8-byte header and a 5-byte items preamble; one 25-byte
	// EOF frame. The frame count depends on cursor batching, so bound it:
	// at least one items frame, at most one per item.
	const itemBytes, frameBytes, eofBytes = 8 + 4 + 4 + 4 + 9, 8 + 5, 8 + 17
	lo := moved*itemBytes + frameBytes + eofBytes
	hi := moved*(itemBytes+frameBytes) + eofBytes
	// The sender counts the stream once its last write returns, which the
	// joiner can outrun: wait for the count to land before reading it.
	for deadline := time.Now().Add(2 * time.Second); owner.met.handBytesOut.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := owner.met.handBytesOut.Value(); got < lo || got > hi {
		t.Fatalf("stream_bytes_total = %d after streaming %d items, want within [%d, %d]", got, moved, lo, hi)
	}
	streamPass("owner (join session)", owner, ownerJrn, 0)

	before := joiner.met.handBytesOut.Value()
	if err := joiner.Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	streamPass("leaver (leave session)", joiner, joinerJrn, before)
	if got := owner.NumItems(); got != items {
		t.Fatalf("owner has %d items after the leave, want %d", got, items)
	}
	for name, n := range map[string]*Node{"owner (join session)": owner, "leaver (leave session)": joiner} {
		if p, c := n.met.handPrepares.Value(), n.met.handCommits.Value(); p != 1 || c != 1 {
			t.Errorf("%s: prepares_total = %d, commits_total = %d, want 1 and 1", name, p, c)
		}
	}
}
