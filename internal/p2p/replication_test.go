package p2p

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"condisc/internal/doctor"
	"condisc/internal/interval"
	"condisc/internal/journal"
	"condisc/internal/replicate"
	"condisc/internal/store"
)

// replCluster boots an n-node cluster with K-successor replication, a
// tight RPC deadline (so the crash tests' failure detector trips fast),
// and a shared journal for asserting crash_absorb records.
func replCluster(t *testing.T, n int, seed uint64, k int) (*Cluster, *journal.Journal) {
	t.Helper()
	jrn := journal.New(1 << 12)
	c, err := StartCluster(n, seed,
		WithReplication(replicate.Policy{K: k}),
		WithRPCTimeout(250*time.Millisecond),
		WithJournal(jrn))
	if err != nil {
		t.Fatal(err)
	}
	return c, jrn
}

func TestQuorumFailsWithoutReplicas(t *testing.T) {
	// A node with K=3 (majority quorum 2) and no live successors must
	// refuse writes: one local ack is not crash-safe at that policy.
	c, _ := replCluster(t, 1, 91, 3)
	defer c.Stop()
	_, err := c.Client(0).Put("k", []byte("v"), c.Hash())
	if err == nil || !strings.Contains(err.Error(), "write quorum") {
		t.Fatalf("singleton K=3 put: got %v, want quorum failure", err)
	}
	// Quorum=1 makes the same topology writable again.
	solo, err := StartCluster(1, 92, WithReplication(replicate.Policy{K: 3, Quorum: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Stop()
	if _, err := solo.Client(0).Put("k", []byte("v"), solo.Hash()); err != nil {
		t.Fatalf("singleton Quorum=1 put: %v", err)
	}
}

func TestReplicatedPutPlacesPayloads(t *testing.T) {
	const keys = 30
	c, _ := replCluster(t, 5, 93, 3)
	defer c.Stop()
	h := c.Hash()
	for i := 0; i < keys; i++ {
		if _, err := c.Client(i%5).Put(fmt.Sprintf("key-%d", i), []byte("v"), h); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// K=3 places every value on the owner plus 2 successors, so the
	// replica stores together hold exactly 2 payloads per key.
	total := 0
	for _, n := range c.Nodes {
		total += n.rdata.Len()
	}
	if total != 2*keys {
		t.Fatalf("replica stores hold %d payloads, want %d", total, 2*keys)
	}
}

func TestGetErrorClassification(t *testing.T) {
	// A genuine miss and an unreachable owner are different errors.
	c, err := StartCluster(6, 94)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	h := c.Hash()
	if _, _, err := c.Client(0).Get("absent", h); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss on a healthy ring: got %v, want ErrNotFound", err)
	}
	// Kill the owner of a key (no replication, no detector: the hole
	// stays) — the same Get must now classify as unreachable, because
	// the key's presence is unknown, not absent.
	if _, err := c.Client(0).Put("held", []byte("v"), h); err != nil {
		t.Fatal(err)
	}
	owner, _, err := c.Client(0).Lookup(h("held"))
	if err != nil {
		t.Fatal(err)
	}
	entry := -1
	for i, n := range c.Nodes {
		if n.Addr() == owner {
			n.Close()
		} else if entry < 0 {
			entry = i
		}
	}
	if _, _, err := c.Client(entry).Get("held", h); !errors.Is(err, ErrOwnerUnreachable) {
		t.Fatalf("get with dead owner: got %v, want ErrOwnerUnreachable", err)
	}
}

func TestReplicaFallbackBeforeRepair(t *testing.T) {
	// In the window between a crash and its repair, the dead node's ring
	// predecessor serves the dead range from replicas: its cached
	// successor chain IS the dead owner's replica-holder list.
	const keys = 40
	c, _ := replCluster(t, 6, 95, 3)
	defer c.Stop()
	h := c.Hash()
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		if _, err := c.Client(i%6).Put(key, []byte("val-"+key), h); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	victim := c.Nodes[3]
	vicAddr := victim.Addr()
	var pred *Node
	for _, n := range c.Nodes {
		if n.core.Load().succ.Addr == vicAddr {
			pred = n
		}
	}
	if pred == nil {
		t.Fatal("no ring predecessor found for the victim")
	}
	victim.Close()
	// No stabilization pass runs: the ring still points at the corpse.
	served := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		if ownedBy(victim, h(key)) {
			served++
			got, _, err := (&Client{Bootstrap: pred.Addr()}).Get(key, h)
			if err != nil || !bytes.Equal(got, []byte("val-"+key)) {
				t.Fatalf("fallback get %s via predecessor: %v %q", key, err, got)
			}
		}
	}
	if served == 0 {
		t.Skip("victim owned none of the keys at this seed")
	}
	if v := pred.met.replFallbackOK.Value(); v < int64(served) {
		t.Fatalf("predecessor served %d fallback gets, metric says %d", served, v)
	}
}

// ownedBy reports whether the (possibly closed) node's segment contains p.
func ownedBy(n *Node, p interval.Point) bool {
	x, end, _, _ := ringState(n)
	seg := interval.Segment{Start: x, Len: uint64(end - x)}
	if x == end {
		seg = interval.FullCircle
	}
	return seg.Contains(p)
}

func TestCrashAbsorbAndRepair(t *testing.T) {
	// The full crash story: a node dies ungracefully; its predecessor's
	// failure detector trips, absorbs the segment without a handoff
	// session, journals crash_absorb, and the repair pass re-materializes
	// the dead range from replicas — after which every key is served
	// again by the normal read path and the replication invariant holds.
	const keys = 50
	c, jrn := replCluster(t, 8, 96, 3)
	defer c.Stop()
	h := c.Hash()
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		if _, err := c.Client(i%8).Put(key, []byte("val-"+key), h); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	victim := c.Nodes[5]
	vicAddr := victim.Addr()
	victimKeys := 0
	for i := 0; i < keys; i++ {
		if ownedBy(victim, h(fmt.Sprintf("key-%d", i))) {
			victimKeys++
		}
	}
	victim.Close()

	// Survivors stabilize on their own (StabilizeAll fails the sweep at
	// the first dead node): enough rounds for fdThreshold=3 misses, the
	// absorb, a chain refresh, and the repair.
	survivors := make([]*Node, 0, len(c.Nodes)-1)
	for _, n := range c.Nodes {
		if n.Addr() != vicAddr {
			survivors = append(survivors, n)
		}
	}
	for round := 0; round < 8; round++ {
		for _, n := range survivors {
			_ = n.Stabilize()
		}
	}

	// The ring healed around the corpse...
	c.Nodes = survivors
	order, err := c.RingOrder()
	if err != nil {
		t.Fatalf("ring did not heal: %v", err)
	}
	if len(order) != len(survivors) {
		t.Fatalf("healed ring has %d nodes, want %d", len(order), len(survivors))
	}
	// ...the absorb was journaled...
	absorbs := 0
	for _, rec := range jrn.Records() {
		if rec.Kind == journal.KindCrashAbsorb {
			absorbs++
		}
	}
	if absorbs == 0 {
		t.Fatal("no crash_absorb journal record")
	}
	// ...no acknowledged write was lost (served by the NORMAL path: the
	// repair re-materialized the dead range into its new owner's store)...
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		got, _, err := c.Client(i%len(survivors)).Get(key, h)
		if err != nil || !bytes.Equal(got, []byte("val-"+key)) {
			t.Fatalf("post-repair get %s: %v %q", key, err, got)
		}
	}
	// ...and every survivor settled back to a healthy replication
	// invariant (no suspicion, no pending repairs).
	for i, n := range survivors {
		rep := n.Doctor()
		v, ok := rep.Find(doctor.InvReplication)
		if !ok {
			t.Fatalf("survivor %d: no replication verdict", i)
		}
		if !v.OK {
			t.Fatalf("survivor %d: replication invariant breached: %+v", i, v)
		}
	}
	if victimKeys == 0 {
		t.Skip("victim owned none of the keys at this seed (assertions above still ran)")
	}
}

func TestCrashAbsorbDeclinesWithoutChain(t *testing.T) {
	// A detector trip whose successor chain never resolved past the dead
	// node must NOT fall back to absorbing the whole circle — on any ring
	// larger than two nodes that is split-brain. The absorb declines and
	// retries until the chain names a live next hop.
	c, _ := replCluster(t, 5, 98, 3)
	defer c.Stop()
	pred := c.Nodes[0]
	// The cluster shares telemetry.Default, so compare counter deltas.
	base := pred.met.crashAbsorbs.Value()
	vic := pred.core.Load().succ
	var victim *Node
	for _, n := range c.Nodes {
		if n.Addr() == vic.Addr {
			victim = n
		}
	}
	// Simulate the walk having broken at the successor: one entry, not
	// wrapped — the successor's successor is unknown.
	full := pred.core.Load().succs
	editCore(pred, func(c *ringCore) { c.succs, c.succsWrapped = full[:1:1], false })
	victim.Close()
	for i := 0; i < 6; i++ {
		_ = pred.Stabilize()
	}
	if v := pred.met.crashAbsorbs.Value() - base; v != 0 {
		t.Fatalf("absorbed %d times with an unknown successor chain, want decline", v)
	}
	x, end, p, _ := ringState(pred)
	if x == end {
		t.Fatal("predecessor claims the full circle on a 5-node ring")
	}
	if p.ID == pred.id {
		t.Fatal("predecessor set pred=self on a 5-node ring")
	}
	// Once the chain names the dead node's successor the absorb proceeds
	// (the detector is still tripped, so the next probe retries it).
	editCore(pred, func(c *ringCore) { c.succs = full })
	for i := 0; i < 4; i++ {
		_ = pred.Stabilize()
	}
	if v := pred.met.crashAbsorbs.Value() - base; v != 1 {
		t.Fatalf("absorbs after the chain resolved = %d, want 1", v)
	}
}

func TestFailedReplicaPushMarksDirty(t *testing.T) {
	// A Put that meets quorum but loses one replica push leaves the value
	// under-replicated; the failed push must mark the owned range dirty
	// so the next stabilization repairs it even on an otherwise stable
	// ring.
	c, _ := replCluster(t, 3, 99, 3)
	defer c.Stop()
	h := c.Hash()
	owner := c.Nodes[0]
	succs := slices.Clone(owner.core.Load().succs)
	if len(succs) < 2 {
		t.Fatal("successor chain not populated")
	}
	succs[1].Addr = "127.0.0.1:1" // nothing listens here: one push fails
	editCore(owner, func(c *ringCore) { c.succs, c.replDirty = succs, false })
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("key-%d", i); ownedBy(owner, h(k)) {
			key = k
		}
	}
	// Quorum 2 of K=3 still holds: owner's local write + first successor.
	if _, err := (&Client{Bootstrap: owner.Addr()}).Put(key, []byte("v"), h); err != nil {
		t.Fatalf("quorum-met put with one failed push: %v", err)
	}
	if !owner.core.Load().replDirty {
		t.Fatal("failed replica push did not mark the owned range dirty for repair")
	}
}

func TestRepairRequeuesWhenHoldersUnreachable(t *testing.T) {
	// A repair pass that reaches no replica holder must re-queue the
	// segment, and with it the replica-read
	// fallback) — dropping it would turn a transient partition into
	// permanent NotFounds.
	c, _ := replCluster(t, 3, 100, 3)
	defer c.Stop()
	n := c.Nodes[0]
	seg := interval.Segment{Start: 1, Len: 10}
	real := n.core.Load().succs
	editCore(n, func(c *ringCore) {
		c.repairSegs = []interval.Segment{seg}
		c.succs = []NodeInfo{{ID: 42, Addr: "127.0.0.1:1"}} // unreachable holder
	})
	n.runRepairs()
	if segs := len(n.core.Load().repairSegs); segs != 1 {
		t.Fatalf("unreachable holders: %d segments queued, want the segment kept", segs)
	}
	editCore(n, func(c *ringCore) { c.succs = real })
	// With the real (reachable) holders back, the retried pass retires
	// the segment: the gather met the reconstruction quorum.
	n.runRepairs()
	if segs := len(n.core.Load().repairSegs); segs != 0 {
		t.Fatalf("after holders reachable: %d segments queued, want repair retired", segs)
	}
}

func TestDoctorReplDesiredFromPolicy(t *testing.T) {
	// The doctor's desired-replica count comes from the policy, not from
	// the cached chain: a degraded chain walk must breach the invariant,
	// not shrink "desired" in lockstep with "live" and read healthy.
	c, _ := replCluster(t, 4, 101, 3)
	defer c.Stop()
	n := c.Nodes[0]
	rep := n.Doctor()
	if v, ok := rep.Find(doctor.InvReplication); !ok || !v.OK {
		t.Fatalf("healthy ring: replication verdict %+v (found=%v), want pass", v, ok)
	}
	full := n.core.Load().succs
	// The walk broke after one hop, NOT a wrap.
	editCore(n, func(c *ringCore) { c.succs, c.succsWrapped = full[:1:1], false })
	rep = n.Doctor()
	if v, ok := rep.Find(doctor.InvReplication); !ok || v.OK {
		t.Fatalf("degraded chain: replication verdict %+v (found=%v), want breach", v, ok)
	}
	editCore(n, func(c *ringCore) { c.succs = full })
}

func TestCrashRepairRestoresReplicationFactor(t *testing.T) {
	// After repair, re-replication restores K copies of everything —
	// including the absorbed range, whose payloads must now live on the
	// NEW owner's successor chain.
	const keys = 30
	c, _ := replCluster(t, 6, 97, 3)
	defer c.Stop()
	h := c.Hash()
	for i := 0; i < keys; i++ {
		if _, err := c.Client(0).Put(fmt.Sprintf("key-%d", i), []byte("v"), h); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.Nodes[2]
	vicAddr := victim.Addr()
	victim.Close()
	survivors := make([]*Node, 0, 5)
	for _, n := range c.Nodes {
		if n.Addr() != vicAddr {
			survivors = append(survivors, n)
		}
	}
	for round := 0; round < 10; round++ {
		for _, n := range survivors {
			_ = n.Stabilize()
		}
	}
	// Count live payloads per key across the survivors' replica stores:
	// every key must again be on 2 successors (K−1), whoever owns it now.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		copies := 0
		for _, n := range survivors {
			if _, ok, _ := n.rdata.Get(h(key), key); ok {
				copies++
			}
		}
		if copies < 2 {
			t.Fatalf("key %s has %d replica payloads after repair, want >= 2", key, copies)
		}
	}
}

// failOnceStore is a replica store whose first cursor batch fails.
type failOnceStore struct {
	store.Store
	failed bool
}

func (s *failOnceStore) Cursor(seg interval.Segment) store.Cursor {
	return &failOnceCursor{Cursor: s.Store.Cursor(seg), s: s}
}

type failOnceCursor struct {
	store.Cursor
	s *failOnceStore
}

func (c *failOnceCursor) Next(max int) ([]store.Item, error) {
	if !c.s.failed {
		c.s.failed = true
		return nil, errors.New("replica store read failed")
	}
	return c.Cursor.Next(max)
}

func TestRepairRequeuesOnLocalReadError(t *testing.T) {
	// The only surviving payload of a key sits in this node's own replica
	// store. A pass whose walk of that store fails reaches every remote
	// holder, but must not retire the segment: the key would stay missing
	// for good. The next pass reads the store and repairs it.
	c, _ := replCluster(t, 3, 102, 3)
	defer c.Stop()
	n := c.Nodes[0]
	seg := interval.Segment{Start: 1, Len: 10}
	rdata := &failOnceStore{Store: n.rdata}
	if err := rdata.Put(5, "lost", replicate.EncodeCopy([]byte("v"))); err != nil {
		t.Fatal(err)
	}
	n.rdata = rdata
	editCore(n, func(c *ringCore) { c.repairSegs = []interval.Segment{seg} })
	n.runRepairs()
	if segs := len(n.core.Load().repairSegs); !rdata.failed || segs != 1 {
		t.Fatalf("local read error (injected=%v): %d segments queued, want the segment kept", rdata.failed, segs)
	}
	if _, ok, _ := n.data.Get(5, "lost"); ok {
		t.Fatal("key repaired by the pass whose local read failed")
	}
	n.runRepairs()
	if segs := len(n.core.Load().repairSegs); segs != 0 {
		t.Fatalf("after a clean local read: %d segments queued, want repair retired", segs)
	}
	if v, ok, _ := n.data.Get(5, "lost"); !ok || string(v) != "v" {
		t.Fatalf("key not repaired from the local replica store: %q %v", v, ok)
	}
}
