package route

import (
	"math/rand/v2"
	"testing"

	"condisc/internal/dhgraph"
	"condisc/internal/interval"
	"condisc/internal/partition"
)

// This file stresses the lookups on decompositions far from smooth: the
// correctness of delivery must not depend on ρ (only the path-length
// bounds do).

// clusteredRing crams most servers into a tiny arc, leaving one huge
// segment — the adversarial configuration of Theorem 4.4.
func clusteredRing(n int) *partition.Ring {
	r := partition.New()
	for i := 0; i < n; i++ {
		r.Insert(interval.Point(uint64(i) << 20)) // all within [0, 2^-24)
	}
	return r
}

func TestFastLookupOnClusteredRing(t *testing.T) {
	nw := NewNetwork(dhgraph.Build(clusteredRing(256), 2))
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 2000; i++ {
		src := rng.IntN(nw.G.N())
		y := interval.Point(rng.Uint64())
		path := nw.FastLookup(src, y)
		last := path[len(path)-1]
		if !nw.G.Ring.Segment(last).Contains(y) {
			t.Fatalf("clustered ring: lookup for %v misdelivered", y)
		}
		for j := 1; j < len(path); j++ {
			if !isEdge(nw, path[j-1], path[j]) {
				t.Fatalf("clustered ring: non-edge on path")
			}
		}
	}
}

func TestDHLookupOnClusteredRing(t *testing.T) {
	nw := NewNetwork(dhgraph.Build(clusteredRing(256), 2))
	rng := rand.New(rand.NewPCG(2, 2))
	for i := 0; i < 2000; i++ {
		src := rng.IntN(nw.G.N())
		y := interval.Point(rng.Uint64())
		path := nw.DHLookup(src, y, rng)
		last := path[len(path)-1]
		if !nw.G.Ring.Segment(last).Contains(y) {
			t.Fatalf("clustered ring: DH lookup for %v misdelivered", y)
		}
	}
}

// TestLookupsOnGeometricRing: segment lengths spanning many orders of
// magnitude (geometric decay) — worst-case smoothness with structure.
func TestLookupsOnGeometricRing(t *testing.T) {
	r := partition.New()
	p := interval.Point(0)
	step := uint64(1) << 62
	for i := 0; i < 60; i++ {
		r.Insert(p)
		p += interval.Point(step)
		step /= 2
		if step == 0 {
			break
		}
	}
	nw := NewNetwork(dhgraph.Build(r, 2))
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 2000; i++ {
		src := rng.IntN(nw.G.N())
		y := interval.Point(rng.Uint64())
		for _, path := range [][]int{nw.FastLookup(src, y), nw.DHLookup(src, y, rng)} {
			last := path[len(path)-1]
			if !nw.G.Ring.Segment(last).Contains(y) {
				t.Fatalf("geometric ring: misdelivery for %v", y)
			}
		}
	}
}

// TestTinyNetworks: lookups on n = 2..5 servers (boundary conditions of
// the walk machinery).
func TestTinyNetworks(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	for n := 2; n <= 5; n++ {
		for _, delta := range []uint64{2, 3, 8} {
			ring := partition.Grow(partition.New(), n, partition.SingleChooser, rng)
			nw := NewNetwork(dhgraph.Build(ring, delta))
			for i := 0; i < 300; i++ {
				src := rng.IntN(n)
				y := interval.Point(rng.Uint64())
				if p := nw.FastLookup(src, y); !nw.G.Ring.Segment(p[len(p)-1]).Contains(y) {
					t.Fatalf("n=%d ∆=%d: fast misdelivery", n, delta)
				}
				if p := nw.DHLookup(src, y, rng); !nw.G.Ring.Segment(p[len(p)-1]).Contains(y) {
					t.Fatalf("n=%d ∆=%d: DH misdelivery", n, delta)
				}
			}
		}
	}
}

// TestLookupTargetsSegmentBoundaries: exact boundary points (segment
// starts, predecessors of starts) are the classic off-by-one trap.
func TestLookupTargetsSegmentBoundaries(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	ring := partition.Grow(partition.New(), 64, partition.MultipleChooser(2), rng)
	nw := NewNetwork(dhgraph.Build(ring, 2))
	for i := 0; i < ring.N(); i++ {
		for _, y := range []interval.Point{ring.Point(i), ring.Point(i) - 1, ring.Point(i) + 1} {
			src := rng.IntN(ring.N())
			path := nw.FastLookup(src, y)
			if !ring.Segment(path[len(path)-1]).Contains(y) {
				t.Fatalf("boundary point %v misdelivered", y)
			}
		}
	}
}
