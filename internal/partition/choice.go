package partition

import (
	"math"
	"math/rand/v2"

	"condisc/internal/interval"
)

// This file implements the ID-selection algorithms of §4: how a joining
// server picks its point so that the decomposition stays smooth.

// SingleChoice implements Algorithm Single Choice: V.ID is uniform in [0,1).
// Lemma 4.1: after n insertions the longest segment is Θ(log n / n) and
// some segment is as short as Θ(1/n²) whp.
func SingleChoice(rng *rand.Rand) interval.Point {
	return interval.Point(rng.Uint64())
}

// ImprovedSingleChoice implements the Improved Single Choice Algorithm:
// sample a uniform z, look up the segment covering z, and take its middle
// point. Lemma 4.2: shortest segment Θ(1/(n log n)), longest O(log n / n).
func ImprovedSingleChoice(r *Ring, rng *rand.Rand) interval.Point {
	if r.N() == 0 {
		return interval.Point(rng.Uint64())
	}
	z := interval.Point(rng.Uint64())
	return r.SegmentOf(z).Mid()
}

// ChoiceProbes returns the number of probes Multiple Choice samples for
// a ring of n servers: t·⌈log2(n+1)⌉, at least 1. ("A multiplicative
// estimation of n is easily achievable and suffices.")
func ChoiceProbes(n, t int) int {
	probes := t * int(math.Ceil(math.Log2(float64(n+1))))
	if probes < 1 {
		probes = 1
	}
	return probes
}

// MultipleChoice implements the Multiple Choice Algorithm: sample t·log n
// uniform points, find the longest segment among those covering them, and
// take its middle. Lemma 4.3 (t >= 2): the shortest segment stays >= 1/(4n)
// whp; Theorem 4.4: the algorithm self-corrects any initial configuration.
func MultipleChoice(r *Ring, rng *rand.Rand, t int) interval.Point {
	if r.N() == 0 {
		return interval.Point(rng.Uint64())
	}
	probes := ChoiceProbes(r.N(), t)
	var best interval.Segment
	haveBest := false
	for i := 0; i < probes; i++ {
		z := interval.Point(rng.Uint64())
		seg := r.SegmentOf(z)
		if seg.Len == 0 { // full circle: any probe wins
			return seg.Mid()
		}
		if !haveBest || seg.Len > best.Len {
			best, haveBest = seg, true
		}
	}
	return best.Mid()
}

// Chooser is a pluggable ID-selection strategy, letting experiments sweep
// the §4 algorithms uniformly.
type Chooser func(r *Ring, rng *rand.Rand) interval.Point

// SingleChooser adapts SingleChoice to the Chooser interface.
func SingleChooser(_ *Ring, rng *rand.Rand) interval.Point { return SingleChoice(rng) }

// ImprovedChooser adapts ImprovedSingleChoice.
func ImprovedChooser(r *Ring, rng *rand.Rand) interval.Point {
	return ImprovedSingleChoice(r, rng)
}

// MultipleChooser returns a Chooser running MultipleChoice with parameter t.
func MultipleChooser(t int) Chooser {
	return func(r *Ring, rng *rand.Rand) interval.Point {
		return MultipleChoice(r, rng, t)
	}
}

// Grow inserts count servers using the given chooser and returns the ring.
func Grow(r *Ring, count int, choose Chooser, rng *rand.Rand) *Ring {
	for i := 0; i < count; i++ {
		for {
			p := choose(r, rng)
			if _, ok := r.Insert(p); ok {
				break
			}
		}
	}
	return r
}

// EquallySpaced returns a ring of n perfectly smooth points i/n — the
// idealized decomposition under which the discrete DH graph is isomorphic
// to the de Bruijn graph (§2.1, "The De-Bruijn Graph").
func EquallySpaced(n int) *Ring {
	pts := make([]interval.Point, n)
	step := ^uint64(0)/uint64(n) + 1
	for i := range pts {
		pts[i] = interval.Point(uint64(i) * step)
	}
	return FromPoints(pts)
}
