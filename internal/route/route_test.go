package route

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"condisc/internal/dhgraph"
	"condisc/internal/interval"
	"condisc/internal/partition"
)

func smoothNetwork(n int, delta uint64, seed uint64) (*Network, *rand.Rand) {
	rng := rand.New(rand.NewPCG(seed, seed^0xabc))
	ring := partition.Grow(partition.New(), n, partition.MultipleChooser(2), rng)
	return NewNetwork(dhgraph.Build(ring, delta)), rng
}

// isEdge reports whether the servers at ring indices i and j are
// neighbours in the discrete graph (or i == j).
func isEdge(nw *Network, i, j int) bool {
	return nw.G.IsNeighborH(nw.G.Ring.HandleAt(i), nw.G.Ring.HandleAt(j))
}

// TestFastLookupDelivers: the last server on the path covers y.
func TestFastLookupDelivers(t *testing.T) {
	nw, rng := smoothNetwork(512, 2, 1)
	for i := 0; i < 3000; i++ {
		src := rng.IntN(nw.G.N())
		y := interval.Point(rng.Uint64())
		path := nw.FastLookup(src, y)
		if len(path) == 0 || path[0] != src {
			t.Fatal("path must start at src")
		}
		last := path[len(path)-1]
		if !nw.G.Ring.Segment(last).Contains(y) {
			t.Fatalf("lookup for %v delivered to %d whose segment is %v",
				y, last, nw.G.Ring.Segment(last))
		}
	}
}

// TestFastLookupPathBound verifies Corollary 2.5:
// length <= log n + log ρ + 1 (+1 for the fixed-point delivery guard).
func TestFastLookupPathBound(t *testing.T) {
	for _, n := range []int{128, 512, 2048} {
		nw, rng := smoothNetwork(n, 2, uint64(n))
		bound := math.Log2(float64(n)) + math.Log2(nw.G.Ring.Smoothness()) + 2
		for i := 0; i < 2000; i++ {
			src := rng.IntN(n)
			y := interval.Point(rng.Uint64())
			if l := len(nw.FastLookup(src, y)) - 1; float64(l) > bound {
				t.Fatalf("n=%d: path length %d > bound %.1f", n, l, bound)
			}
		}
	}
}

// TestFastLookupPathEdges: consecutive servers on a path are neighbours in
// the discrete graph (the lookup respects the overlay topology).
func TestFastLookupPathEdges(t *testing.T) {
	nw, rng := smoothNetwork(300, 2, 2)
	for i := 0; i < 1000; i++ {
		path := nw.FastLookup(rng.IntN(nw.G.N()), interval.Point(rng.Uint64()))
		for j := 1; j < len(path); j++ {
			if !isEdge(nw, path[j-1], path[j]) {
				t.Fatalf("path step %d—%d is not an edge", path[j-1], path[j])
			}
		}
	}
}

// TestDHLookupDelivers: phase II always terminates at the cover of y, and
// consecutive path servers are neighbours.
func TestDHLookupDelivers(t *testing.T) {
	nw, rng := smoothNetwork(512, 2, 3)
	for i := 0; i < 3000; i++ {
		src := rng.IntN(nw.G.N())
		y := interval.Point(rng.Uint64())
		path := nw.DHLookup(src, y, rng)
		last := path[len(path)-1]
		if !nw.G.Ring.Segment(last).Contains(y) {
			t.Fatalf("DH lookup for %v delivered to wrong server", y)
		}
		for j := 1; j < len(path); j++ {
			if !isEdge(nw, path[j-1], path[j]) {
				t.Fatalf("path step %d—%d is not an edge", path[j-1], path[j])
			}
		}
	}
}

// TestDHLookupPathBound verifies Theorem 2.8: length <= 2 log n + 2 log ρ
// (+small slack for the entry/delivery hops).
func TestDHLookupPathBound(t *testing.T) {
	for _, n := range []int{128, 512, 2048} {
		nw, rng := smoothNetwork(n, 2, uint64(n)+7)
		bound := 2*math.Log2(float64(n)) + 2*math.Log2(nw.G.Ring.Smoothness()) + 3
		for i := 0; i < 2000; i++ {
			src := rng.IntN(n)
			y := interval.Point(rng.Uint64())
			if l := len(nw.DHLookup(src, y, rng)) - 1; float64(l) > bound {
				t.Fatalf("n=%d: DH path length %d > bound %.1f", n, l, bound)
			}
		}
	}
}

// TestCongestionLogarithmic reproduces Theorem 2.7 / 2.9: after n random
// lookups the maximum load is O(log n) — i.e. congestion O(log n / n).
func TestCongestionLogarithmic(t *testing.T) {
	const n = 2048
	for _, fast := range []bool{true, false} {
		nw, rng := smoothNetwork(n, 2, 11)
		nw.ResetLoad()
		for i := 0; i < n; i++ {
			src := rng.IntN(n)
			y := interval.Point(rng.Uint64())
			if fast {
				nw.FastLookup(src, y)
			} else {
				nw.DHLookup(src, y, rng)
			}
		}
		maxLoad := nw.MaxLoad()
		logN := math.Log2(n)
		// Each lookup has Θ(log n) hops; with n lookups the average load is
		// Θ(log n) and the max should stay within a constant factor.
		if float64(maxLoad) > 12*logN {
			t.Errorf("fast=%v: max load %d > 12 log n = %.0f", fast, maxLoad, 12*logN)
		}
	}
}

// TestPermutationRoutingLoad reproduces Theorem 2.10: routing a worst-case
// permutation with DH Lookup keeps every server's load at O(log n).
func TestPermutationRoutingLoad(t *testing.T) {
	const n = 2048
	nw, rng := smoothNetwork(n, 2, 13)
	perm := rng.Perm(n)
	maxLoad := nw.PermutationRoute(perm, false, rng)
	if float64(maxLoad) > 16*math.Log2(n) {
		t.Errorf("permutation max load %d > 16 log n", maxLoad)
	}
	// Lower bound sanity from the averaging argument in the proof: some
	// server handles Ω(log n) messages.
	if float64(maxLoad) < math.Log2(n)/2 {
		t.Errorf("permutation max load %d implausibly low", maxLoad)
	}
}

// TestDeltaLookupPathScaling reproduces Theorem 2.13: with degree ∆ the
// path length drops to Θ(log_∆ n).
func TestDeltaLookupPathScaling(t *testing.T) {
	const n = 1024
	var prevAvg float64 = math.Inf(1)
	for _, delta := range []uint64{2, 4, 16} {
		nw, rng := smoothNetwork(n, delta, 17)
		_, sum := nw.RandomLookups(2000, true, rng)
		avg := float64(sum) / 2000
		bound := 64/math.Log2(float64(delta)) + 2
		if avg > bound {
			t.Errorf("∆=%d: avg path %.1f > hard bound %.1f", delta, avg, bound)
		}
		if avg >= prevAvg {
			t.Errorf("∆=%d: avg path %.1f did not decrease (prev %.1f)", delta, avg, prevAvg)
		}
		prevAvg = avg
	}
}

// TestLookupFromOwnSegment: looking up a point you already cover is a
// zero-hop path.
func TestLookupFromOwnSegment(t *testing.T) {
	nw, rng := smoothNetwork(64, 2, 19)
	for i := 0; i < 200; i++ {
		src := rng.IntN(nw.G.N())
		y := nw.G.Ring.Segment(src).Mid()
		if p := nw.FastLookup(src, y); len(p) != 1 {
			t.Fatalf("self lookup path = %v", p)
		}
		if p := nw.DHLookup(src, y, rng); len(p) != 1 {
			t.Fatalf("self DH lookup path = %v", p)
		}
	}
}

// TestTraceStructure checks the phase decomposition invariants used by the
// caching protocol: TargetWalk descends from q_T to q_0 = y with backward
// steps, and digits determine the walk.
func TestTraceStructure(t *testing.T) {
	nw, rng := smoothNetwork(256, 2, 23)
	for i := 0; i < 500; i++ {
		src := rng.IntN(nw.G.N())
		y := interval.Point(rng.Uint64())
		_, tr := nw.DHLookupTrace(src, y, rng)
		if len(tr.TargetWalk) != len(tr.Digits)+1 {
			t.Fatalf("walk length %d != digits+1 %d", len(tr.TargetWalk), len(tr.Digits)+1)
		}
		if tr.TargetWalk[len(tr.TargetWalk)-1] != y {
			t.Fatal("target walk must end at y")
		}
		// Reconstruct forward: q_j = Step(q_{j-1}, τ_j).
		q := y
		for j, d := range tr.Digits {
			q = interval.DeltaStep(q, 2, d)
			idx := len(tr.TargetWalk) - 2 - j
			if tr.TargetWalk[idx] != q {
				t.Fatalf("walk position %d mismatch", idx)
			}
		}
	}
}

// TestLoadAccountingConsistency: the sum of loads equals the sum of path
// lengths (+1 per lookup for the origin).
func TestLoadAccountingConsistency(t *testing.T) {
	nw, rng := smoothNetwork(128, 2, 29)
	nw.ResetLoad()
	total := 0
	for i := 0; i < 300; i++ {
		path := nw.DHLookup(rng.IntN(nw.G.N()), interval.Point(rng.Uint64()), rng)
		total += len(path)
	}
	var sum int64
	for _, l := range nw.LoadMap() {
		sum += l
	}
	if sum != int64(total) {
		t.Errorf("load sum %d != total path elements %d", sum, total)
	}
}

// TestDHLookupUsesDistinctEntryPoints: over many lookups to the same
// target, phase II entry nodes should be spread (randomized routing) — the
// property the caching protocol exploits.
func TestDHLookupUsesDistinctEntryPoints(t *testing.T) {
	nw, rng := smoothNetwork(512, 2, 31)
	y := interval.Point(rng.Uint64())
	entries := map[interval.Point]int{}
	for i := 0; i < 400; i++ {
		src := rng.IntN(nw.G.N())
		_, tr := nw.DHLookupTrace(src, y, rng)
		entries[tr.TargetWalk[0]]++
	}
	if len(entries) < 100 {
		t.Errorf("only %d distinct phase-II entry points over 400 lookups", len(entries))
	}
}

// TestFastLookupDeterministic: same src/target yields the same path.
func TestFastLookupDeterministic(t *testing.T) {
	nw, rng := smoothNetwork(128, 2, 37)
	src := rng.IntN(nw.G.N())
	y := interval.Point(rng.Uint64())
	a := nw.FastLookup(src, y)
	b := nw.FastLookup(src, y)
	if len(a) != len(b) {
		t.Fatal("fast lookup must be deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fast lookup path differs between runs")
		}
	}
}

// TestCongestionProportionalToSegment spot-checks the congestion formula of
// Theorem 2.7: servers with larger segments see proportionally more
// traffic. We compare aggregate load of the largest-segment quartile vs the
// smallest.
func TestCongestionProportionalToSegment(t *testing.T) {
	const n = 1024
	nw, rng := smoothNetwork(n, 2, 41)
	nw.ResetLoad()
	for i := 0; i < 20*n; i++ {
		nw.FastLookup(rng.IntN(n), interval.Point(rng.Uint64()))
	}
	type pair struct {
		len  uint64
		load int64
	}
	ps := make([]pair, n)
	for i := 0; i < n; i++ {
		ps[i] = pair{nw.G.Ring.Segment(i).Len, nw.LoadOf(nw.G.Ring.HandleAt(i))}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].len < ps[j].len })
	var lo, hi int64
	for i := 0; i < n/4; i++ {
		lo += ps[i].load
		hi += ps[n-1-i].load
	}
	if hi <= lo {
		t.Errorf("large segments should attract more load: hi=%d lo=%d", hi, lo)
	}
}
