package p2p

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"condisc/internal/continuous"
	"condisc/internal/interval"
	"condisc/internal/telemetry"
)

// backIDs snapshots a node's ID-keyed backward table.
func backIDs(n *Node) map[uint64]NodeInfo {
	back := n.core.Load().back
	out := make(map[uint64]NodeInfo, len(back))
	for _, e := range back {
		out[e.ID] = e
	}
	return out
}

// TestJoinPatchesBackTablesIncrementally: a joining node announces itself
// to the covers of its forward images with opPatchBack, so their ID-keyed
// backward tables list it without anyone running a Stabilize pass.
func TestJoinPatchesBackTablesIncrementally(t *testing.T) {
	c, err := StartCluster(10, 71)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	joiner, err := NewNode("127.0.0.1:0", 71)
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.StartJoin(c.Nodes[0].Addr(), rand.New(rand.NewPCG(72, 73))); err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()

	// NO StabilizeAll here: only the join-time patches have run. Every node
	// whose segment meets one of the joiner's ∆ forward images — every node
	// whose backward image covers part of the joiner's segment — must know it.
	pts, err := c.RingOrder()
	if err != nil {
		t.Fatal(err)
	}
	segOf := make(map[interval.Point]interval.Segment, len(pts))
	for i, p := range pts {
		segOf[p] = interval.Segment{Start: p, Len: uint64(pts[(i+1)%len(pts)] - p)}
	}
	jseg := segOf[joiner.Point()]
	covers := 0
	for _, n := range c.Nodes {
		for k := uint64(0); k < Delta; k++ {
			img := continuous.DeltaImage(jseg, Delta, k)
			if !segOf[n.Point()].Overlaps(img) {
				continue
			}
			covers++
			if _, ok := backIDs(n)[joiner.ID()]; !ok {
				t.Fatalf("node %s covers part of the joiner's image %v but its backward table does not list it",
					n.Addr(), img)
			}
		}
	}
	if covers == 0 {
		t.Fatal("no node covers any of the joiner's images")
	}

	// Every node's ring pointers must carry real stable IDs: the succ
	// pointer's ID names the node at the succ address (the incremental
	// patch protocol keys on these).
	byAddr := map[string]uint64{joiner.Addr(): joiner.ID()}
	for _, n := range c.Nodes {
		byAddr[n.Addr()] = n.ID()
	}
	for _, n := range append(append([]*Node(nil), c.Nodes...), joiner) {
		if succ := n.core.Load().succ; succ.ID == 0 || succ.ID != byAddr[succ.Addr] {
			t.Fatalf("node %s: succ pointer %s has ID %x, want %x",
				n.Addr(), succ.Addr, succ.ID, byAddr[succ.Addr])
		}
	}

	// The patched tables route correctly end to end.
	cl := &Client{Bootstrap: c.Nodes[1].Addr()}
	if _, err := cl.Put("patched", []byte("x"), c.Hash()); err != nil {
		t.Fatal(err)
	}
	v, _, err := cl.Get("patched", c.Hash())
	if err != nil || string(v) != "x" {
		t.Fatalf("get after incremental join: %v %q", err, v)
	}
}

// TestRingFormationRPCs bounds what membership maintenance costs at ∆:
// forming a 32-node ring sends at most 1.1 × the 1,422 RPCs the ∆ = 2 node
// sent. A wider backward table costs more image lookups and patches per
// join; stabilizing before the image announcements, and stopping an arc
// walk at a cover whose End lies outside the arc, pay for them.
func TestRingFormationRPCs(t *testing.T) {
	own := func(n *Node) { n.tel = telemetry.NewRegistry() }
	c, err := StartCluster(32, 0xC0D15C, own)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var rpcs int64
	for _, n := range c.Nodes {
		for name, v := range n.Telemetry().Snapshot().Counters {
			if strings.HasPrefix(name, "condisc_p2p_rpc_total{") {
				rpcs += v
			}
		}
	}
	t.Logf("forming the ring sent %d RPCs", rpcs)
	if limit := int64(1422 * 11 / 10); rpcs > limit {
		t.Fatalf("forming a 32-node ring sent %d RPCs, over %d", rpcs, limit)
	}
}

// TestLeaveRetractsFromBackTables: a leaving node retracts its ID from the
// backward tables referencing it, so no table keeps routing to a dead
// address even before the next stabilization round.
func TestLeaveRetractsFromBackTables(t *testing.T) {
	c, err := StartCluster(10, 81)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.StabilizeAll(2); err != nil {
		t.Fatal(err)
	}

	victim := c.Nodes[4]
	holders := 0
	for i, n := range c.Nodes {
		if i == 4 {
			continue
		}
		if _, ok := backIDs(n)[victim.ID()]; ok {
			holders++
		}
	}
	if holders == 0 {
		t.Skip("no table lists the victim; nothing to retract")
	}
	if err := victim.Leave(); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes {
		if i == 4 {
			continue
		}
		if e, ok := backIDs(n)[victim.ID()]; ok {
			t.Fatalf("node %d still lists departed %x -> %s", i, e.ID, e.Addr)
		}
	}
	// Routing still works through the survivors.
	cl := &Client{Bootstrap: c.Nodes[0].Addr()}
	if _, err := cl.Put("after-leave", []byte("y"), c.Hash()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		y := interval.Point(rand.Uint64())
		if _, _, err := cl.Lookup(y); err != nil {
			t.Fatalf("lookup %d failed after retraction: %v", i, err)
		}
	}
}

// missingCover names the first node of alive whose backward table lacks a
// cover of its ∆-ary backward arc, or returns "" when every table is
// complete. Segments come from the live ring, read through c.Nodes[0].
func missingCover(t *testing.T, c *Cluster, alive []*Node) string {
	t.Helper()
	pts, err := c.RingOrder()
	if err != nil {
		t.Fatal(err)
	}
	segOf := make(map[interval.Point]interval.Segment, len(pts))
	for i, p := range pts {
		segOf[p] = interval.Segment{Start: p, Len: uint64(pts[(i+1)%len(pts)] - p)}
	}
	for _, n := range alive {
		arc := continuous.DeltaBackImage(segOf[n.Point()], Delta)
		table := backIDs(n)
		for _, m := range alive {
			if _, ok := table[m.ID()]; !ok && segOf[m.Point()].Overlaps(arc) {
				return fmt.Sprintf("node %s does not list %s, which covers part of its arc %v", n.Addr(), m.Addr(), arc)
			}
		}
	}
	return ""
}

// TestLeaveHandsTableEntriesToHeir: after a graceful leave, with no
// stabilization since, every survivor's backward table still lists every
// cover of its arc. The predecessor inherits the leaver's segment, so it
// must appear wherever the leaver did — also in the tables whose arc
// starts inside the leaver's segment, which listed the leaver first — and
// its own arc grows by the leaver's, whose covers it must add. A table
// short of a cover sends a walk into that cover's range through the wrong
// node, and the lookup finishes by a ring walk of O(n) hops.
func TestLeaveHandsTableEntriesToHeir(t *testing.T) {
	c, err := StartCluster(16, 83)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	alive := slices.Clone(c.Nodes)
	for round := 0; missingCover(t, c, alive) != ""; round++ {
		if round == 8 {
			t.Fatalf("tables incomplete after %d stabilization rounds: %s", round, missingCover(t, c, alive))
		}
		if err := c.StabilizeAll(1); err != nil {
			t.Fatal(err)
		}
	}

	// listedFirst counts the tables whose arc starts inside a victim's
	// segment. Node 0 never leaves: RingOrder starts there.
	listedFirst := 0
	for _, vi := range []int{5, 9, 13} {
		victim := c.Nodes[vi]
		alive = slices.DeleteFunc(alive, func(n *Node) bool { return n == victim })
		st := victim.Status()
		if st.State != "serving" || st.Repairs != 0 {
			t.Fatalf("formed node %s reads state %q, repair queue %d; want serving, 0", victim.Addr(), st.State, st.Repairs)
		}
		vseg := interval.Segment{Start: interval.Point(st.Point), Len: uint64(st.End - st.Point)}
		for _, n := range alive {
			if vseg.Contains(interval.DeltaBack(n.Point(), Delta)) {
				listedFirst++
			}
		}
		if err := victim.Leave(); err != nil {
			t.Fatal(err)
		}
		// Leave returns at the commit; the predecessor finishes its
		// absorption, table extension included, after that.
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			busy := 0
			for _, n := range alive {
				if n.core.Load().state != serving {
					busy++
				}
			}
			if busy == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("an absorption still running 2 s after the leave returned")
			}
		}
		if m := missingCover(t, c, alive); m != "" {
			t.Fatalf("after %s left: %s", victim.Addr(), m)
		}
	}
	if listedFirst == 0 {
		t.Fatal("no survivor's arc starts inside a victim's segment; the heir patch went unexercised")
	}

	// A joiner reads joining until its own side of the commit lands —
	// also after the owner has committed — and serving once it has.
	joiner, err := NewNode("127.0.0.1:0", 83)
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	var midJoin string
	hookHandoff(joiner, nil, func() error {
		midJoin = joiner.Status().State
		return nil
	})
	if st := joiner.Status().State; st != "joining" {
		t.Fatalf("a node before StartJoin reads %q, want joining", st)
	}
	if err := joiner.StartJoin(c.Nodes[0].Addr(), rand.New(rand.NewPCG(84, 85))); err != nil {
		t.Fatal(err)
	}
	if st := joiner.Status().State; midJoin != "joining" || st != "serving" {
		t.Fatalf("joiner reads %q after the owner's commit and %q after its own, want joining, serving", midJoin, st)
	}
}
