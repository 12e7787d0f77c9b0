package partition

import (
	"math"
	"math/rand/v2"

	"condisc/internal/interval"
)

// This file implements the Bucket Solution of §4.1: smoothness maintenance
// in the presence of deletions. Servers join with Single Choice IDs; a
// distributed coordination mechanism groups contiguous chains of Θ(log n)
// servers into buckets. Within a bucket, servers may shift their IDs so no
// segment is too long or too short; buckets split when they grow beyond
// c·log n members and merge with a neighbour when they shrink below a
// threshold. Additionally, adjacent buckets whose point densities drift
// apart move their shared boundary ("rearrange themselves only when the
// smoothness within the bucket exceeds some tunable parameter" — we apply
// the same tunable rule to a bucket pair, which is what a merge-then-split
// achieves in the paper's scheme).
//
// The correctness rationale (§4.1): whp every interval of length log n / n
// contains Θ(log n) points, so balancing within O(log n)-sized contiguous
// chains suffices to restore smoothness.

// BucketRing is a decomposition of I under churn, with servers organized
// into buckets. Points are stored in clockwise ring order starting from an
// anchor (the first point of bucket 0), which makes in-place ID respacing
// wrap-safe.
type BucketRing struct {
	pts   []interval.Point // ring order: CWDist(anchor, pts[i]) strictly increasing
	sizes []int            // sizes[b] = servers in bucket b; sum = len(pts)
	// smoothCap triggers an internal rebalance when a bucket's max/min
	// segment ratio exceeds it; densityCap triggers a boundary shift when
	// adjacent buckets' densities differ by more than this factor.
	smoothCap  float64
	densityCap float64
}

// NewBucketRing creates a bucket ring seeded with n0 >= 2 servers at
// uniform random IDs. smoothCap tunes how eagerly buckets rebalance.
func NewBucketRing(n0 int, smoothCap float64, rng *rand.Rand) *BucketRing {
	if n0 < 2 {
		n0 = 2
	}
	seen := make(map[interval.Point]bool, n0)
	pts := make([]interval.Point, 0, n0)
	for len(pts) < n0 {
		p := SingleChoice(rng)
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	r := FromPoints(pts)
	b := &BucketRing{
		pts:        r.Points(), // Points() materializes a fresh slice
		smoothCap:  smoothCap,
		densityCap: 2,
	}
	b.rebuildBuckets()
	return b
}

// N returns the number of servers.
func (b *BucketRing) N() int { return len(b.pts) }

// Ring materializes the current decomposition as a sorted Ring (for
// measurement; O(n log n)).
func (b *BucketRing) Ring() *Ring { return FromPoints(b.pts) }

// anchor is the fixed origin of the clockwise ordering.
func (b *BucketRing) anchor() interval.Point { return b.pts[0] }

// cw returns the clockwise offset of p from the anchor.
func (b *BucketRing) cw(p interval.Point) uint64 {
	return interval.CWDist(b.anchor(), p)
}

// gap returns the segment length between consecutive ring points i, i+1.
func (b *BucketRing) gap(i int) uint64 {
	j := i + 1
	if j == len(b.pts) {
		j = 0
	}
	return interval.CWDist(b.pts[i], b.pts[j])
}

// Smoothness returns the global max/min segment ratio.
func (b *BucketRing) Smoothness() float64 {
	min, max := ^uint64(0), uint64(0)
	for i := range b.pts {
		g := b.gap(i)
		if g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	if min == 0 {
		return math.Inf(1)
	}
	return float64(max) / float64(min)
}

// targetBucketSize returns Θ(log n) for the current n.
func (b *BucketRing) targetBucketSize() int {
	n := len(b.pts)
	if n < 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n)))) + 1
}

// rebuildBuckets reassigns all servers into buckets of target size.
func (b *BucketRing) rebuildBuckets() {
	n := len(b.pts)
	tgt := b.targetBucketSize()
	b.sizes = b.sizes[:0]
	for n > 0 {
		sz := tgt
		if n < 2*tgt {
			sz = n
		}
		b.sizes = append(b.sizes, sz)
		n -= sz
	}
}

// bucketOf returns the bucket containing ring index i and the ring index of
// that bucket's first server.
func (b *BucketRing) bucketOf(i int) (bkt, first int) {
	acc := 0
	for bi, sz := range b.sizes {
		if i < acc+sz {
			return bi, acc
		}
		acc += sz
	}
	return len(b.sizes) - 1, acc - b.sizes[len(b.sizes)-1]
}

// bucketArcLen returns the length of the arc owned by bucket bkt (from its
// first point to the next bucket's first point, wrapping for the last).
func (b *BucketRing) bucketArcLen(bkt, first int) uint64 {
	nextFirst := first + b.sizes[bkt]
	if nextFirst >= len(b.pts) {
		return interval.CWDist(b.pts[first], b.pts[0])
	}
	return interval.CWDist(b.pts[first], b.pts[nextFirst])
}

// bucketSmoothness returns max/min segment ratio among the bucket's
// members (their segments are the gaps starting at each member).
func (b *BucketRing) bucketSmoothness(bkt, first int) float64 {
	min, max := ^uint64(0), uint64(0)
	for j := 0; j < b.sizes[bkt]; j++ {
		g := b.gap(first + j)
		if g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	if min == 0 {
		return math.Inf(1)
	}
	return float64(max) / float64(min)
}

// rebalance evenly respaces the bucket's members over its arc, keeping the
// first point fixed. Safe across the 0-wrap because points are stored in
// ring order from the anchor and the arc never crosses the anchor.
func (b *BucketRing) rebalance(bkt, first int) {
	k := b.sizes[bkt]
	if k <= 1 {
		return
	}
	arcLen := b.bucketArcLen(bkt, first)
	step := arcLen / uint64(k)
	start := b.pts[first]
	for j := 1; j < k; j++ {
		b.pts[first+j] = start + interval.Point(uint64(j)*step)
	}
}

// pairRebalance respaces buckets bkt and bkt+1 jointly over their combined
// arc, moving the shared boundary so both end up with equal segment
// lengths. Skipped for the wrapping pair to keep the anchor fixed.
func (b *BucketRing) pairRebalance(bkt, first int) {
	if bkt+1 >= len(b.sizes) {
		return
	}
	k1, k2 := b.sizes[bkt], b.sizes[bkt+1]
	total := b.bucketArcLen(bkt, first) + b.bucketArcLen(bkt+1, first+k1)
	k := k1 + k2
	step := total / uint64(k)
	start := b.pts[first]
	for j := 1; j < k; j++ {
		b.pts[first+j] = start + interval.Point(uint64(j)*step)
	}
}

// Join inserts a server with a Single Choice ID and maintains the bucket
// invariants, returning the new server's point.
func (b *BucketRing) Join(rng *rand.Rand) interval.Point {
	for {
		p := SingleChoice(rng)
		if b.insert(p) {
			return p
		}
	}
}

// insert places p in ring order; returns false on duplicate.
func (b *BucketRing) insert(p interval.Point) bool {
	idx := b.coverIndex(p)
	if b.pts[idx] == p {
		return false
	}
	at := idx + 1
	b.pts = append(b.pts, 0)
	copy(b.pts[at+1:], b.pts[at:])
	b.pts[at] = p
	bkt, first := b.bucketOf(at)
	b.sizes[bkt]++
	b.maintain(bkt, first)
	return true
}

// coverIndex returns the ring index of the server covering p: the largest i
// with cw(pts[i]) <= cw(p).
func (b *BucketRing) coverIndex(p interval.Point) int {
	d := b.cw(p)
	lo, hi := 0, len(b.pts) // invariant: cw(pts[lo]) <= d or lo == 0
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if b.cw(b.pts[mid]) <= d {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Leave removes the server covering p (e.g. a random failure) and
// maintains the bucket invariants.
func (b *BucketRing) Leave(p interval.Point) {
	if len(b.pts) <= 2 {
		return
	}
	idx := b.coverIndex(p)
	bkt, first := b.bucketOf(idx)
	b.pts = append(b.pts[:idx], b.pts[idx+1:]...)
	b.sizes[bkt]--
	if b.sizes[bkt] == 0 {
		// Bucket vanished: drop it and fold maintenance into the neighbour.
		b.sizes = append(b.sizes[:bkt], b.sizes[bkt+1:]...)
		if len(b.sizes) == 0 {
			b.rebuildBuckets()
			return
		}
		if bkt >= len(b.sizes) {
			bkt = len(b.sizes) - 1
			first -= b.sizes[bkt]
		}
		if first < 0 {
			first = 0
		}
	}
	b.maintain(bkt, first)
}

// maintain enforces size bounds, the smoothness cap, and density diffusion
// on bucket bkt (whose first ring index is first).
func (b *BucketRing) maintain(bkt, first int) {
	n := len(b.pts)
	if n == 0 || len(b.sizes) == 0 {
		return
	}
	tgt := b.targetBucketSize()
	switch {
	case b.sizes[bkt] > 2*tgt:
		// Split into two halves and respace each.
		half := b.sizes[bkt] / 2
		rest := b.sizes[bkt] - half
		b.sizes[bkt] = half
		b.sizes = append(b.sizes, 0)
		copy(b.sizes[bkt+2:], b.sizes[bkt+1:])
		b.sizes[bkt+1] = rest
		b.pairRebalance(bkt, first)
		return
	case b.sizes[bkt] < tgt/2 && len(b.sizes) > 1:
		if bkt+1 < len(b.sizes) {
			// Merge with successor, then respace (and re-split if too big).
			b.sizes[bkt] += b.sizes[bkt+1]
			b.sizes = append(b.sizes[:bkt+1], b.sizes[bkt+2:]...)
			if b.sizes[bkt] > 2*tgt {
				b.maintain(bkt, first)
				return
			}
			b.rebalance(bkt, first)
			return
		}
		// Last bucket: merge with predecessor instead (keeps anchor fixed).
		prev := bkt - 1
		prevFirst := first - b.sizes[prev]
		b.sizes[prev] += b.sizes[bkt]
		b.sizes = b.sizes[:bkt]
		if b.sizes[prev] > 2*tgt {
			b.maintain(prev, prevFirst)
			return
		}
		b.rebalance(prev, prevFirst)
		return
	}
	if b.bucketSmoothness(bkt, first) > b.smoothCap {
		b.rebalance(bkt, first)
	}
	// Density diffusion: if this bucket and its successor have drifted
	// apart in points-per-arc, move the shared boundary.
	if bkt+1 < len(b.sizes) {
		b.diffuse(bkt, first)
	}
	if bkt > 0 {
		prevFirst := first - b.sizes[bkt-1]
		b.diffuse(bkt-1, prevFirst)
	}
}

// diffuse pair-rebalances bkt and bkt+1 when their densities differ by more
// than densityCap.
func (b *BucketRing) diffuse(bkt, first int) {
	a1 := float64(b.bucketArcLen(bkt, first))
	a2 := float64(b.bucketArcLen(bkt+1, first+b.sizes[bkt]))
	if a1 == 0 || a2 == 0 {
		b.pairRebalance(bkt, first)
		return
	}
	d1 := float64(b.sizes[bkt]) / a1
	d2 := float64(b.sizes[bkt+1]) / a2
	if d1/d2 > b.densityCap || d2/d1 > b.densityCap {
		b.pairRebalance(bkt, first)
	}
}

// CheckInvariants verifies bookkeeping: sizes sum to n, no empty buckets,
// and points are in strict clockwise order from the anchor.
func (b *BucketRing) CheckInvariants() bool {
	total := 0
	for _, sz := range b.sizes {
		if sz <= 0 {
			return false
		}
		total += sz
	}
	if total != len(b.pts) {
		return false
	}
	for i := 1; i < len(b.pts); i++ {
		if b.cw(b.pts[i]) <= b.cw(b.pts[i-1]) {
			return false
		}
	}
	return true
}
