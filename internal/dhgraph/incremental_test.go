package dhgraph

import (
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"condisc/internal/interval"
	"condisc/internal/partition"
)

// equalGraphs reports whether the incrementally maintained graph is
// identical — adjacency lists, forward/backward lists, and every Theorem
// 2.1/2.2 counter — to a graph freshly built from the same ring.
func equalGraphs(t *testing.T, inc, fresh *Graph) {
	t.Helper()
	if inc.N() != fresh.N() {
		t.Fatalf("n: inc %d != fresh %d", inc.N(), fresh.N())
	}
	for i := 0; i < inc.N(); i++ {
		h := inc.Ring.HandleAt(i)
		if !slices.Equal(inc.AdjH(h), fresh.AdjH(h)) {
			t.Fatalf("adj[%d]: inc %v != fresh %v", h, inc.AdjH(h), fresh.AdjH(h))
		}
		if !slices.Equal(inc.OutH(h), fresh.OutH(h)) {
			t.Fatalf("out[%d]: inc %v != fresh %v", h, inc.OutH(h), fresh.OutH(h))
		}
		if !slices.Equal(inc.InH(h), fresh.InH(h)) {
			t.Fatalf("in[%d]: inc %v != fresh %v", h, inc.InH(h), fresh.InH(h))
		}
	}
	if inc.EdgeCountNoRing() != fresh.EdgeCountNoRing() {
		t.Fatalf("contEdges: inc %d != fresh %d", inc.EdgeCountNoRing(), fresh.EdgeCountNoRing())
	}
	if inc.MaxOutNoRing() != fresh.MaxOutNoRing() {
		t.Fatalf("maxOut: inc %d != fresh %d", inc.MaxOutNoRing(), fresh.MaxOutNoRing())
	}
	if inc.MaxInNoRing() != fresh.MaxInNoRing() {
		t.Fatalf("maxIn: inc %d != fresh %d", inc.MaxInNoRing(), fresh.MaxInNoRing())
	}
}

// checkDerived recomputes by brute force what the graph derives instead of
// storing: every InH against the reverse of all out-lists, MaxInNoRing
// against the longest InH, every AdjH against out ∪ in ∪ ring edges − self,
// MaxDegree against the longest AdjH, and the Theorem 2.1 edge count
// against the distinct unordered out-pairs.
func checkDerived(t *testing.T, g *Graph) {
	t.Helper()
	n := g.N()
	rev := map[Handle][]Handle{}
	for i := 0; i < n; i++ {
		h := g.Ring.HandleAt(i)
		for _, v := range g.OutH(h) {
			rev[v] = append(rev[v], h)
		}
	}
	longestIn := 0
	for i := 0; i < n; i++ {
		h := g.Ring.HandleAt(i)
		want := slices.Sorted(slices.Values(rev[h]))
		if got := g.InH(h); !slices.Equal(got, want) {
			t.Fatalf("n=%d in[%d] = %v, reverse of the out-lists %v", n, h, got, want)
		}
		longestIn = max(longestIn, len(want))
	}
	if got := g.MaxInNoRing(); got != longestIn {
		t.Fatalf("n=%d: MaxInNoRing %d, longest InH %d", n, got, longestIn)
	}
	longest := 0
	pairs := map[[2]Handle]bool{}
	for i := 0; i < n; i++ {
		h := g.Ring.HandleAt(i)
		nb := map[Handle]bool{
			g.Ring.HandleAt(g.Ring.Predecessor(i)): true,
			g.Ring.HandleAt(g.Ring.Successor(i)):   true,
		}
		for _, v := range g.OutH(h) {
			nb[v] = true
			pairs[[2]Handle{min(h, v), max(h, v)}] = true
		}
		for _, v := range g.InH(h) {
			nb[v] = true
		}
		delete(nb, h)
		want := slices.Sorted(maps.Keys(nb))
		if got := g.AdjH(h); !slices.Equal(got, want) {
			t.Fatalf("n=%d adj[%d] = %v, brute force %v", n, h, got, want)
		}
		longest = max(longest, len(want))
	}
	if got := g.MaxDegree(); got != longest {
		t.Fatalf("n=%d: MaxDegree %d, longest AdjH %d", n, got, longest)
	}
	if got := g.EdgeCountNoRing(); got != len(pairs) {
		t.Fatalf("n=%d: EdgeCountNoRing %d, brute force %d", n, got, len(pairs))
	}
}

// TestIncrementalMatchesBuild is the differential churn test: after every
// operation of a random 10k-op join/leave trace, the incrementally patched
// graph must be identical to a from-scratch Build over the same ring, and
// what it derives must match a brute-force recount. The blast radius of
// every operation (LastTouched) is pinned per trace as a rolling digest,
// so a change to how lists are stored cannot silently widen or narrow it.
func TestIncrementalMatchesBuild(t *testing.T) {
	traces := []struct {
		delta   uint64
		ops     int
		seed    uint64
		touched uint64 // digest of the LastTouched sequence
	}{
		{2, 8000, 1, 14189377098798804805},
		{3, 1000, 2, 18030096806480289812},
		{4, 1000, 3, 2911654876186039045},
	}
	total := 0
	for _, tc := range traces {
		touched := uint64(0)
		rng := rand.New(rand.NewPCG(tc.seed, tc.seed*977))
		ring := partition.Grow(partition.New(), 64, partition.MultipleChooser(2), rng)
		g := Build(ring, tc.delta)
		for op := 0; op < tc.ops; op++ {
			n := ring.N()
			join := rng.IntN(2) == 0
			if n <= 8 {
				join = true
			} else if n >= 128 {
				join = false
			}
			if join {
				var p interval.Point
				if rng.IntN(4) == 0 {
					p = partition.SingleChoice(rng) // adversarially unsmooth
				} else {
					p = partition.MultipleChoice(ring, rng, 2)
				}
				if _, ok := g.Insert(p); !ok {
					continue
				}
			} else {
				g.Remove(rng.IntN(n))
			}
			touched = touched*1_000_003 + uint64(g.LastTouched())
			equalGraphs(t, g, Build(ring, tc.delta))
			checkDerived(t, g)
			total++
		}
		if touched != tc.touched {
			t.Errorf("∆=%d: LastTouched digest %d, pinned %d", tc.delta, touched, tc.touched)
		}
	}
	if total < 9000 {
		t.Fatalf("trace too short: %d effective ops", total)
	}
}

// TestIncrementalTheoremBounds re-asserts the Theorem 2.1/2.2 bounds on a
// graph that was grown and shrunk purely through incremental updates.
func TestIncrementalTheoremBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	ring := partition.Grow(partition.New(), 8, partition.MultipleChooser(2), rng)
	g := Build(ring, 2)
	for ring.N() < 1024 {
		g.Insert(partition.MultipleChoice(ring, rng, 2))
	}
	check := func() {
		n, rho := ring.N(), ring.Smoothness()
		if e := g.EdgeCountNoRing(); e > 3*n-1 {
			t.Fatalf("n=%d: %d edges > 3n-1", n, e)
		}
		if out := g.MaxOutNoRing(); float64(out) > rho+4 {
			t.Fatalf("n=%d: maxOut %d > ρ+4 = %.1f", n, out, rho+4)
		}
		if in := g.MaxInNoRing(); float64(in) > math.Ceil(2*rho)+1 {
			t.Fatalf("n=%d: maxIn %d > ⌈2ρ⌉+1 = %.1f", n, in, math.Ceil(2*rho)+1)
		}
	}
	check()
	for ring.N() > 256 {
		g.Remove(rng.IntN(ring.N()))
		check()
	}
	equalGraphs(t, g, Build(ring, 2))
	if allocs := testing.AllocsPerRun(10, func() { g.MaxDegree() }); allocs != 0 {
		t.Fatalf("MaxDegree allocates %.0f times per call, want 0", allocs)
	}
}

// TestIncrementalLocality: the blast radius of one churn event on a smooth
// ring stays bounded by the O(ρ·∆) neighbourhood of Theorem 2.2, far below
// n — the §2.1 locality claim on the maintained structure.
func TestIncrementalLocality(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	ring := partition.Grow(partition.New(), 2048, partition.MultipleChooser(2), rng)
	g := Build(ring, 2)
	maxTouched := 0
	for i := 0; i < 200; i++ {
		if _, ok := g.Insert(partition.MultipleChoice(ring, rng, 2)); !ok {
			continue
		}
		if g.LastTouched() > maxTouched {
			maxTouched = g.LastTouched()
		}
		g.Remove(rng.IntN(ring.N()))
		if g.LastTouched() > maxTouched {
			maxTouched = g.LastTouched()
		}
	}
	rho := ring.Smoothness()
	bound := int(8*(rho+4)) + 8 // generous constant over the ρ+4 / ⌈2ρ⌉+1 degrees
	if maxTouched > bound {
		t.Fatalf("churn touched %d servers, want <= %d (ρ=%.1f, n=%d)",
			maxTouched, bound, rho, ring.N())
	}
	if maxTouched >= ring.N()/4 {
		t.Fatalf("churn touched %d of %d servers: not local", maxTouched, ring.N())
	}
}

// TestRemoveHandle: a handle keeps naming its server across index shifts
// from unrelated churn, so resolving it at removal time (IndexOfHandle,
// then Remove — what DHT.LeaveBatch does) removes the right server.
func TestRemoveHandle(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 23))
	ring := partition.Grow(partition.New(), 64, partition.MultipleChooser(2), rng)
	g := Build(ring, 2)
	idx, _ := g.Insert(partition.MultipleChoice(ring, rng, 2))
	h := ring.HandleAt(idx)
	p := ring.Point(idx)
	// Shift indices around with unrelated churn.
	for i := 0; i < 20; i++ {
		g.Insert(partition.SingleChoice(rng))
		j := rng.IntN(ring.N())
		if ring.HandleAt(j) != h {
			g.Remove(j)
		}
	}
	idx, ok := ring.IndexOfHandle(h)
	if !ok || ring.Point(idx) != p {
		t.Fatalf("handle lost or renamed by unrelated churn (ok=%v)", ok)
	}
	g.Remove(idx)
	if _, ok := ring.IndexOfHandle(h); ok {
		t.Fatal("handle still present after removal")
	}
	if ring.Point(ring.Cover(p)) == p {
		t.Fatal("the removed server's point is still on the ring")
	}
	equalGraphs(t, g, Build(ring, 2))
}
