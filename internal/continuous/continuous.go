// Package continuous models the continuous Distance Halving graph Gc and
// its path trees (§2.1, §3.1 of Naor & Wieder).
//
// The vertex set of Gc is the unit interval I; each point y has out-edges
// ℓ(y) = y/2 and r(y) = y/2 + 1/2 and one in-edge from b(y) = 2y mod 1. The
// ∆-ary generalization (§2.3) has out-edges f_i(y) = y/∆ + i/∆. Point-level
// arithmetic lives in internal/interval; this package adds the structures
// built on top of the maps: path trees (Definition 5) and segment images.
package continuous

import (
	"math/bits"

	"condisc/internal/interval"
)

// TreeNode identifies a node of the path tree rooted at some point y
// (Definition 5): the root is the node at depth 0; node z has children
// ℓ(z) and r(z). Path bit i (0-indexed, counted from the root) selects the
// branch taken at depth i: 0 for the ℓ-child, 1 for the r-child.
type TreeNode struct {
	Depth uint8
	Path  uint64 // bit i = branch at depth i; bits >= Depth are zero
}

// Root is the path-tree root.
var Root = TreeNode{}

// Child returns the child of n reached via branch bit (0 = ℓ, 1 = r).
func (n TreeNode) Child(bit byte) TreeNode {
	c := TreeNode{Depth: n.Depth + 1, Path: n.Path}
	if bit != 0 {
		c.Path |= 1 << n.Depth
	}
	return c
}

// Parent returns the parent of n. The root is its own parent.
func (n TreeNode) Parent() TreeNode {
	if n.Depth == 0 {
		return n
	}
	d := n.Depth - 1
	return TreeNode{Depth: d, Path: n.Path &^ (1 << d)}
}

// AncestorAt returns the ancestor of n at depth d <= n.Depth.
func (n TreeNode) AncestorAt(d uint8) TreeNode {
	if d >= n.Depth {
		return n
	}
	return TreeNode{Depth: d, Path: n.Path & (1<<d - 1)}
}

// IsAncestorOf reports whether n is an ancestor of (or equal to) m.
func (n TreeNode) IsAncestorOf(m TreeNode) bool {
	return n.Depth <= m.Depth && m.Path&(1<<n.Depth-1) == n.Path
}

// PointUnder returns the point of I occupied by this tree node when the
// tree is rooted at root. The node's point is obtained by composing the
// branch maps along the path from the root, so its top Depth bits are the
// path bits in reverse order followed by the top bits of the root. Two
// distinct nodes at depth j are therefore at distance at least 2^-j
// (Observation 3.2).
func (n TreeNode) PointUnder(root interval.Point) interval.Point {
	if n.Depth == 0 {
		return root
	}
	d := uint(n.Depth)
	// Descending the tree applies the branch maps root-first, so the deepest
	// branch bit ends up most significant: top bits are Path reversed-in-time,
	// which is exactly Path shifted to the top of the word.
	return interval.Point(n.Path<<(64-d)) | root>>d
}

// EntryNode converts the random digit string τ (bit i = τ_{i+1}) consumed
// by a Distance Halving lookup of depth t into the path-tree node at which
// the lookup's phase II enters the tree rooted at the target: the node at
// depth t whose branch at depth i is τ_{i+1} (§3.1: "every request for i
// reaches y via a random path in the path tree").
func EntryNode(tau uint64, t uint8) TreeNode {
	return TreeNode{Depth: t, Path: tau & (1<<t - 1)}
}

// DeltaImage returns the image segment f_k(s) of a segment. It has 1/∆ of
// the length (Figure 1 shows the ∆ = 2 case), rounded up to the
// fixed-point grid: the true image of a nonempty real interval is
// nonempty, but a floor division would round a segment shorter than ∆
// ulps to Len 0 — which by convention denotes the full circle, silently
// connecting a tiny segment's server to every other server. Ceiling
// division over-approximates the image by at most one ulp instead, which
// the preimage padding in consumers (see dhgraph.affectedSources) already
// tolerates.
func DeltaImage(s interval.Segment, delta, k uint64) interval.Segment {
	ln := s.Len / delta
	if s.Len%delta != 0 {
		ln++
	}
	if s.Len == 0 { // full circle
		ln = divideCircle(delta)
	}
	return interval.Segment{Start: interval.DeltaMap(s.Start, delta, k), Len: ln}
}

// DeltaImages returns the ∆ image segments f_0(s), ..., f_{∆-1}(s) of a
// segment (see DeltaImage).
func DeltaImages(s interval.Segment, delta uint64) []interval.Segment {
	out := make([]interval.Segment, delta)
	for k := range out {
		out[k] = DeltaImage(s, delta, uint64(k))
	}
	return out
}

// divideCircle returns floor(2^64 / delta).
func divideCircle(delta uint64) uint64 {
	q, _ := bits.Div64(1, 0, delta)
	return q
}

// DeltaBackImage returns the preimage arc of s under the ∆ forward maps:
// the contiguous arc of length ∆·|s| starting at b(s.Start). Every point
// with a forward edge into s lies in it.
func DeltaBackImage(s interval.Segment, delta uint64) interval.Segment {
	if s.Len == 0 {
		return interval.FullCircle
	}
	hi, ln := bits.Mul64(s.Len, delta)
	if hi > 0 {
		return interval.FullCircle
	}
	return interval.Segment{Start: interval.DeltaBack(s.Start, delta), Len: ln}
}
