package dhgraph

import (
	"math"
	"math/rand/v2"
	"testing"

	"condisc/internal/graph"
	"condisc/internal/interval"
	"condisc/internal/partition"
	"condisc/internal/spectral"
)

// TestDeBruijnIsomorphism verifies the claim of §2.1: with n = 2^r equally
// spaced points, the discrete DH graph (without ring edges) is isomorphic
// to the r-dimensional de Bruijn graph. We check it edge-by-edge: server i
// (segment [i/n, (i+1)/n)) must have forward edges exactly to the covers of
// i/(2n) and i/(2n)+1/2, which are the de Bruijn neighbours under the bit
// reversal described in the paper.
func TestDeBruijnIsomorphism(t *testing.T) {
	const r = 5
	const n = 1 << r
	ring := partition.EquallySpaced(n)
	g := Build(ring, 2)
	for i := 0; i < n; i++ {
		seg := ring.Segment(i)
		// ℓ and r images of the whole segment are each covered by exactly one
		// segment (halving an aligned dyadic interval).
		h := ring.HandleAt(i)
		lCover := ring.CoverHandle(seg.Start.Half())
		rCover := ring.CoverHandle(seg.Start.HalfPlus())
		if !g.IsNeighborH(h, lCover) || !g.IsNeighborH(h, rCover) {
			t.Fatalf("server %d missing de Bruijn neighbours %d/%d", i, lCover, rCover)
		}
	}
	// Degree structure: each server's continuous-derived out-edges are
	// exactly {ℓ-cover, r-cover}, so maxOut = 2 and maxIn = 1 backward
	// preimage arc covering two segments -> in-degree 2.
	if g.MaxOutNoRing() != 2 {
		t.Errorf("maxOut = %d, want 2 on the exact de Bruijn graph", g.MaxOutNoRing())
	}
	if g.MaxInNoRing() != 2 {
		t.Errorf("maxIn = %d, want 2", g.MaxInNoRing())
	}
}

// TestTheorem21EdgeCount: for any point set, continuous-derived edges
// (excluding ring edges) number at most 3n-1.
func TestTheorem21EdgeCount(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.IntN(500)
		pts := make([]interval.Point, n)
		for i := range pts {
			pts[i] = interval.Point(rng.Uint64())
		}
		ring := partition.FromPoints(pts)
		g := Build(ring, 2)
		if e := g.EdgeCountNoRing(); e > 3*ring.N()-1 {
			t.Errorf("n=%d: %d edges > 3n-1 = %d", ring.N(), e, 3*ring.N()-1)
		}
	}
}

// TestTheorem22Degrees: out-degree <= ρ+4 and in-degree <= ⌈2ρ⌉+1 without
// ring edges.
func TestTheorem22Degrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 10; trial++ {
		ring := partition.Grow(partition.New(), 512, partition.MultipleChooser(2), rng)
		g := Build(ring, 2)
		rho := ring.Smoothness()
		if out := g.MaxOutNoRing(); float64(out) > rho+4 {
			t.Errorf("maxOut %d > ρ+4 = %.1f", out, rho+4)
		}
		if in := g.MaxInNoRing(); float64(in) > math.Ceil(2*rho)+1 {
			t.Errorf("maxIn %d > 2ρ+1 = %.1f", in, math.Ceil(2*rho)+1)
		}
	}
}

// TestEdgesMatchContinuousDefinition cross-checks the edge derivation: for
// random continuous points y, the servers covering y and f_i(y) must be
// neighbours in the discrete graph (the defining property of G⃗x).
func TestEdgesMatchContinuousDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for _, delta := range []uint64{2, 4, 3} {
		ring := partition.Grow(partition.New(), 200, partition.SingleChooser, rng)
		g := Build(ring, delta)
		for trial := 0; trial < 2000; trial++ {
			y := interval.Point(rng.Uint64())
			from := ring.CoverHandle(y)
			for d := uint64(0); d < delta; d++ {
				img := interval.DeltaMap(y, delta, d)
				to := ring.CoverHandle(img)
				if !g.IsNeighborH(from, to) {
					t.Fatalf("∆=%d: cover(%v)=%d and cover(f_%d)=%d not neighbours",
						delta, y, from, d, to)
				}
			}
		}
	}
}

// TestBackwardEdgeNeighbor: the server covering p and the server covering
// b(p) are neighbours (the backward edge used by lookup phase II).
func TestBackwardEdgeNeighbor(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	ring := partition.Grow(partition.New(), 300, partition.MultipleChooser(2), rng)
	g := Build(ring, 2)
	for trial := 0; trial < 2000; trial++ {
		p := interval.Point(rng.Uint64())
		if !g.IsNeighborH(ring.CoverHandle(p), ring.CoverHandle(p.Back())) {
			t.Fatalf("backward edge of %v not present", p)
		}
	}
}

func TestRingEdgesPresent(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	ring := partition.Grow(partition.New(), 100, partition.SingleChooser, rng)
	g := Build(ring, 2)
	for i := 0; i < ring.N(); i++ {
		if !g.IsNeighborH(ring.HandleAt(i), ring.HandleAt(ring.Successor(i))) {
			t.Fatalf("ring edge %d—%d missing", i, ring.Successor(i))
		}
	}
}

func TestConnectedAndLogDiameter(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	ring := partition.Grow(partition.New(), 256, partition.MultipleChooser(2), rng)
	g := Build(ring, 2)
	u := g.Undirected()
	if !u.Connected() {
		t.Fatal("DH graph must be connected")
	}
	// Diameter should be O(log n); allow generous constant.
	if d := u.Diameter(); d > 4*8+8 {
		t.Errorf("diameter = %d, too large for n=256", d)
	}
}

// TestAverageDegreeConstant verifies the consequence of Theorem 2.1: the
// average degree is at most 6 plus the 2 ring edges.
func TestAverageDegreeConstant(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	ring := partition.Grow(partition.New(), 2000, partition.SingleChooser, rng)
	g := Build(ring, 2)
	if avg := g.Undirected().AvgDegree(); avg > 8 {
		t.Errorf("average degree = %.2f, want <= 8", avg)
	}
}

// TestDeltaDegreeScaling: degree grows as Θ(∆) on smooth rings (Thm 2.13).
func TestDeltaDegreeScaling(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	ring := partition.Grow(partition.New(), 512, partition.MultipleChooser(2), rng)
	rho := ring.Smoothness()
	for _, delta := range []uint64{2, 4, 8, 16} {
		g := Build(ring, delta)
		if out := float64(g.MaxOutNoRing()); out > float64(delta)*(rho+4) {
			t.Errorf("∆=%d: maxOut %.0f exceeds ∆(ρ+4)", delta, out)
		}
		if g.MaxOutNoRing() < int(delta) {
			t.Errorf("∆=%d: maxOut %d below ∆", delta, g.MaxOutNoRing())
		}
	}
}

func TestBuildPanicsOnBadDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for delta < 2")
		}
	}()
	Build(partition.EquallySpaced(4), 1)
}

// TestMixingTimeLogarithmic verifies the §2.1 claim that the de Bruijn
// graph's mixing time is Θ(log n): a lazy walk on the discrete DH graph is
// within TV 0.1 of stationary after O(log n) steps, while a same-size ring
// is still far.
func TestMixingTimeLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	ring := partition.Grow(partition.New(), 1024, partition.MultipleChooser(2), rng)
	g := Build(ring, 2).Undirected()
	// 15·log n: the lazy walk pays a 2x and the constant-degree gap its
	// own constant; still Θ(log n) (a ring needs Θ(n²)).
	steps := 15 * 10
	if tv := spectral.MixingTV(g, 0, steps); tv > 0.1 {
		t.Errorf("DH graph TV after %d steps = %v, want < 0.1", steps, tv)
	}
	// Contrast: a pure ring of the same size mixes hopelessly slowly.
	rb := graph.NewBuilder(1024)
	for i := 0; i < 1024; i++ {
		rb.AddEdge(i, (i+1)%1024)
	}
	if tv := spectral.MixingTV(rb.Build(), 0, steps); tv < 0.5 {
		t.Errorf("ring TV after %d steps = %v, should be large", steps, tv)
	}
}
