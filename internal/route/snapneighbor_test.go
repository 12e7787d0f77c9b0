package route

import (
	"math/rand/v2"
	"testing"

	"condisc/internal/dhgraph"
	"condisc/internal/interval"
	"condisc/internal/partition"
)

// TestSnapNeighborMatchesGraph: the geometric neighbour predicate the
// lookup path uses (snapshot-only) must agree with dhgraph's maintained
// adjacency for every pair, on smooth and on adversarially lopsided
// rings, across ∆ = 2 and 3.
func TestSnapNeighborMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	build := func(pts []interval.Point, delta uint64) *Network {
		return NewNetwork(dhgraph.Build(partition.FromPoints(pts), delta))
	}
	cases := []struct {
		name  string
		pts   []interval.Point
		delta uint64
	}{}
	for _, delta := range []uint64{2, 3} {
		for _, n := range []int{1, 2, 3, 5, 32, 200} {
			pts := make([]interval.Point, n)
			for i := range pts {
				pts[i] = interval.Point(rng.Uint64())
			}
			cases = append(cases, struct {
				name  string
				pts   []interval.Point
				delta uint64
			}{"uniform", pts, delta})
		}
		// Lopsided: one huge segment plus a dense cluster — stresses the
		// full-circle image and multi-cover arcs.
		clustered := []interval.Point{0}
		for i := 0; i < 40; i++ {
			clustered = append(clustered, interval.Point(1<<20+uint64(i)*997))
		}
		cases = append(cases, struct {
			name  string
			pts   []interval.Point
			delta uint64
		}{"clustered", clustered, delta})
	}
	for _, tc := range cases {
		nw := build(tc.pts, tc.delta)
		snap := nw.G.Ring.Snapshot()
		n := snap.N()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := isEdge(nw, i, j)
				got := nw.snapNeighbor(snap, i, j)
				if got != want {
					t.Fatalf("%s ∆=%d n=%d: snapNeighbor(%d,%d)=%v, graph says %v",
						tc.name, tc.delta, n, i, j, got, want)
				}
			}
		}
	}
}
