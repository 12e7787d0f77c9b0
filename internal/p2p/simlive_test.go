package p2p

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"condisc/internal/continuous"
	"condisc/internal/dhgraph"
	"condisc/internal/interval"
	"condisc/internal/partition"
	"condisc/internal/route"
	"condisc/internal/telemetry"
)

// TestFastLookupMatchesSimulator is the sim-vs-live differential: a live
// 24-node ring with complete backward tables and the simulator's network
// at the same ∆ over the same decomposition must route every lookup
// through the same nodes in the same order. Both plan with
// route.FastPlan/FastAdvance; what this adds is everything around the
// plan — the live hop choice out of the ID-keyed backward table, the wire
// carrying Pos/StepsLeft, and the final delivery — agreeing with
// Snapshot.Cover on the same points. The mean path must also stay within
// Corollary 2.5's log_∆ n + O(1), here log_∆ n + ½.
func TestFastLookupMatchesSimulator(t *testing.T) {
	c, err := StartCluster(24, 77, WithTelemetry(telemetry.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	pts, err := c.RingOrder()
	if err != nil {
		t.Fatal(err)
	}
	ring := partition.FromPoints(pts)
	nw := route.NewNetwork(dhgraph.Build(ring, Delta))
	nw.SetTelemetry(telemetry.NewRegistry())

	// Stabilize until every node's backward table lists exactly the covers
	// of the ∆-ary b(s) the decomposition names; a table short of that would route
	// by ring fallback and legitimately take other hops.
	complete := func() bool {
		for _, n := range c.Nodes {
			st := n.Status()
			seg := interval.Segment{Start: interval.Point(st.Point), Len: uint64(st.End - st.Point)}
			var want []uint64
			for _, h := range ring.CoverHandlesOfArc(continuous.DeltaBackImage(seg, Delta)) {
				i, _ := ring.IndexOfHandle(h)
				want = append(want, uint64(ring.Point(i)))
			}
			slices.Sort(want)
			got := make([]uint64, len(st.Back))
			for i, e := range st.Back {
				got[i] = e.Point
			}
			if !slices.Equal(got, want) {
				return false
			}
		}
		return true
	}
	for round := 0; !complete(); round++ {
		if round == 8 {
			t.Fatal("backward tables still incomplete after 8 stabilization rounds")
		}
		if err := c.StabilizeAll(1); err != nil {
			t.Fatal(err)
		}
	}

	pointOf := make(map[string]interval.Point, len(c.Nodes))
	for _, n := range c.Nodes {
		pointOf[n.Addr()] = n.Point()
	}
	rng := rand.New(rand.NewPCG(77, 78))
	const lookups = 2000
	hops := 0
	for i := 0; i < lookups; i++ {
		entry := c.Nodes[rng.IntN(len(c.Nodes))]
		y := interval.Point(rng.Uint64())
		tr, err := (&Client{Bootstrap: entry.Addr(), Tel: telemetry.NewRegistry()}).Trace(y)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		var want []interval.Point
		for _, idx := range nw.FastLookup(ring.Cover(entry.Point()), y) {
			want = append(want, ring.Point(idx))
		}
		got := make([]interval.Point, len(tr.Path))
		for k, h := range tr.Path {
			got[k] = interval.Point(h.Point)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("lookup %d (%v → %v): live hops %v, simulator %v", i, entry.Point(), y, got, want)
		}
		if owner := pointOf[tr.Owner]; owner != want[len(want)-1] {
			t.Fatalf("lookup %d: live owner %v, simulator %v", i, owner, want[len(want)-1])
		}
		if tr.Hops != len(want)-1 || tr.Stale != 0 {
			t.Fatalf("lookup %d: live reports %d hops, %d stale repairs; simulator path has %d hops",
				i, tr.Hops, tr.Stale, len(want)-1)
		}
		hops += tr.Hops
	}
	mean, bound := float64(hops)/lookups, math.Log(float64(len(c.Nodes)))/math.Log(Delta)+0.5
	t.Logf("%d lookups at ∆ = %d: %.2f hops on average, bound %.2f", lookups, Delta, mean, bound)
	if mean > bound {
		t.Fatalf("mean path %.2f hops, over log_∆ n + ½ = %.2f", mean, bound)
	}
}
