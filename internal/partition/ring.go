// Package partition maintains the dynamic decomposition of the unit
// interval into cells (segments), one per server — the "act discretely"
// half of the continuous-discrete approach (§1.2 of Naor & Wieder) — along
// with the ID-selection (load balancing) algorithms of §4.
//
// The central object is the Ring: the sorted multiset-free set of server
// points x_0 < x_1 < ... < x_{n-1} dividing I into n segments
// s(x_i) = [x_i, x_{i+1}) with the last segment wrapping around. The
// quality of the decomposition is its smoothness ρ = max|s_i| / min|s_j|
// (Definition 1); every theorem in the paper is parameterized by ρ.
//
// Two addressing schemes coexist. The sorted index of a server is its
// position in the decomposition: cheap to enumerate, meaningful only until
// the next churn event (indices shift when any server joins or leaves).
// The Handle is stable: assigned at insertion, never reused, valid until
// that server leaves. All per-server state elsewhere in the system (graph
// adjacency, load counters, caches, item stores) is keyed by Handle, so a
// churn event never renumbers anything; indices are resolved from handles
// only at the moment a ring-order query is needed.
//
// Insert and RemoveAt cost O(log n) amortized: points live in a chunked
// sorted list (olist.go), not a flat slice, so no O(n) memmove is paid.
package partition

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"condisc/internal/interval"
	"condisc/internal/journal"
)

// Handle is a stable server identifier, assigned at insertion and never
// reused. Unlike the sorted index of a server (which shifts whenever any
// other server joins or leaves), a Handle keeps naming the same server
// across arbitrary churn, so callers can hold on to it between operations.
type Handle uint64

// view is the ring-order query API over one ordered point list. Ring embeds
// it over its live, owner-mutated list and Snapshot over a frozen
// copy-on-write one, so every query has a single implementation that both
// answer identically.
type view struct {
	ol olist
}

// Ring is a dynamic decomposition of I into segments. The zero value is an
// empty ring ready for use.
//
// Mutation (Insert/Remove*) is single-writer: the owner serializes it
// externally (churn admission). Concurrent readers do not touch the Ring
// directly — they call Snapshot() and read the immutable epoch-stamped
// view published by the last Publish() (see snapshot.go).
type Ring struct {
	view
	// byH[h-1] is the point handle h was issued at. Handles are issued 1,
	// 2, 3, … and never reused, so the table costs 8 B per handle ever
	// issued, not per live server: a departed handle's slot keeps its old
	// point, and IndexOfHandle confirms the rank it finds still holds h.
	byH []interval.Point

	// epoch counts Publish calls; snap holds the latest published
	// snapshot. Both are written only by the single mutating owner;
	// snap is read concurrently by any number of readers.
	epoch uint64
	snap  atomic.Pointer[Snapshot]

	// jrn, when attached, receives one flight-recorder record per
	// Publish — the sanctioned epoch-visibility point. A nil journal
	// records nothing; the journal is a pure observer either way.
	jrn *journal.Journal
}

// New returns an empty ring.
func New() *Ring { return &Ring{} }

// SetJournal attaches a flight recorder (owner-side, like mutation; set
// it before concurrent publishing starts). Nil detaches.
func (r *Ring) SetJournal(j *journal.Journal) { r.jrn = j }

// FromPoints builds a ring from the given points (duplicates are dropped).
// Handles are assigned in sorted point order.
func FromPoints(pts []interval.Point) *Ring {
	sorted := append([]interval.Point(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	r := New()
	for _, p := range sorted {
		r.Insert(p)
	}
	return r
}

// N returns the number of servers (segments).
func (v *view) N() int { return v.ol.size() }

// Point returns the i-th server point in sorted order (O(log n)).
func (v *view) Point(i int) interval.Point { return v.ol.pointAt(i) }

// Points materializes the sorted point set as a fresh slice (O(n)).
func (r *Ring) Points() []interval.Point {
	out := make([]interval.Point, 0, r.ol.size())
	r.ol.scan(func(_ int, p interval.Point, _ Handle) {
		out = append(out, p)
	})
	return out
}

// Clone returns a deep copy of the ring, handles included.
func (r *Ring) Clone() *Ring {
	return &Ring{view: view{ol: r.ol.clone()}, byH: slices.Clone(r.byH)}
}

// Insert adds a new server point, implementing the segment split of
// Algorithm Join step 3: the segment covering p is divided so that the new
// server owns [p, oldEnd). It reports the new index and whether the point
// was inserted (false if already present). Only the predecessor's segment
// changed shape; the new server's handle is HandleAt of the returned
// index. Cost: O(log n) amortized.
func (r *Ring) Insert(p interval.Point) (int, bool) {
	i, ok := r.ol.insert(p, Handle(len(r.byH)+1))
	if !ok {
		return i, false
	}
	r.byH = append(r.byH, p)
	return i, true
}

// RemoveAt deletes the i-th server; its segment is absorbed by the ring
// predecessor (the simple Leave of §2.1). The predecessor is the only
// server whose segment changed shape. Cost: O(log n) amortized.
func (r *Ring) RemoveAt(i int) { r.ol.removeAt(i) }

// HandleAt returns the stable handle of the server currently at index i
// (O(log n)).
func (v *view) HandleAt(i int) Handle { return v.ol.handleAt(i) }

// IndexOfHandle returns the current sorted index of the server named by h,
// or false if no such server exists (never joined, or already left).
func (r *Ring) IndexOfHandle(h Handle) (int, bool) {
	if h == 0 || h > Handle(len(r.byH)) {
		return 0, false
	}
	// The last point <= h's point is that point itself while h is live.
	// Once h has left, it is some other server's: possibly a later one
	// inserted at the very point h left behind.
	i := r.ol.searchGT(r.byH[h-1]) - 1
	if i < 0 || r.ol.handleAt(i) != h {
		return 0, false
	}
	return i, true
}

// Remove deletes the server with the given point, reporting whether it was
// present.
func (r *Ring) Remove(p interval.Point) bool {
	i := r.ol.searchGT(p)
	if i == 0 {
		return false
	}
	if q, _ := r.ol.at(i - 1); q != p {
		return false
	}
	r.RemoveAt(i - 1)
	return true
}

// checkHandles is the bookkeeping sanity check used by tests: the chunked
// list, the handle table, and the rank queries all agree.
func (r *Ring) checkHandles() bool {
	ok := true
	r.ol.scan(func(i int, p interval.Point, h Handle) {
		if idx, found := r.IndexOfHandle(h); !found || idx != i || r.byH[h-1] != p {
			ok = false
		}
	})
	return ok
}

// Cover returns the index i of the server covering p, i.e. p ∈ s(x_i).
// The ring must be non-empty.
func (v *view) Cover(p interval.Point) int {
	i := v.ol.searchGT(p)
	if i == 0 {
		return v.N() - 1 // p precedes all points: wrapping segment
	}
	return i - 1
}

// CoverHandle returns the stable handle of the server covering p.
func (v *view) CoverHandle(p interval.Point) Handle {
	return v.HandleAt(v.Cover(p))
}

// SegmentOf returns the segment of the server covering p without
// computing its rank — the cheapest probe when the caller only needs the
// segment shape.
func (v *view) SegmentOf(p interval.Point) interval.Segment {
	if v.N() == 1 {
		return interval.FullCircle
	}
	x, next := v.ol.coverSegOnly(p)
	return interval.Segment{Start: x, Len: uint64(next - x)}
}

// Successor returns the index after i on the ring.
func (v *view) Successor(i int) int {
	if i == v.N()-1 {
		return 0
	}
	return i + 1
}

// Predecessor returns the index before i on the ring.
func (v *view) Predecessor(i int) int {
	if i == 0 {
		return v.N() - 1
	}
	return i - 1
}

// Segment returns s(x_i) = [x_i, x_{i+1}).
func (v *view) Segment(i int) interval.Segment {
	if v.N() == 1 {
		return interval.FullCircle
	}
	p := v.Point(i)
	next := v.Point(v.Successor(i))
	return interval.Segment{Start: p, Len: uint64(next - p)}
}

// Segments returns all segments in index order (O(n)).
func (r *Ring) Segments() []interval.Segment {
	n := r.N()
	out := make([]interval.Segment, n)
	if n == 0 {
		return out
	}
	if n == 1 {
		out[0] = interval.FullCircle
		return out
	}
	var first, prev interval.Point
	r.ol.scan(func(i int, p interval.Point, _ Handle) {
		if i == 0 {
			first = p
		} else {
			out[i-1] = interval.Segment{Start: prev, Len: uint64(p - prev)}
		}
		prev = p
	})
	out[n-1] = interval.Segment{Start: prev, Len: uint64(first - prev)}
	return out
}

// SegmentLens returns min and max segment lengths (fixed-point scale).
func (r *Ring) SegmentLens() (min, max uint64) {
	n := r.N()
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return ^uint64(0), ^uint64(0)
	}
	min = ^uint64(0)
	for _, s := range r.Segments() {
		if s.Len < min {
			min = s.Len
		}
		if s.Len > max {
			max = s.Len
		}
	}
	return min, max
}

// Smoothness returns ρ(x⃗) = max_i |s(x_i)| / min_j |s(x_j)| (Definition 1).
func (r *Ring) Smoothness() float64 {
	min, max := r.SegmentLens()
	if min == 0 {
		return 0
	}
	return float64(max) / float64(min)
}

// CoverHandlesOfArc returns the stable handles of all servers whose
// segments intersect the arc, in ring order starting at the server
// covering arc.Start. This enumerates the discrete endpoints of a
// continuous edge image and is the primitive behind edge derivation (§2.1:
// "two cells are connected if they contain adjacent points in the
// continuous graph"). It walks the ordered list chunk-wise — O(log n +
// covers), no per-step rank computation.
func (v *view) CoverHandlesOfArc(arc interval.Segment) []Handle {
	n := v.N()
	if n == 0 {
		return nil
	}
	var out []Handle
	if arc.Len == 0 { // full circle
		out = make([]Handle, 0, n)
		v.ol.scan(func(_ int, _ interval.Point, h Handle) {
			out = append(out, h)
		})
		return out
	}
	first := true
	v.ol.scanRing(arc.Start, func(p interval.Point, h Handle) bool {
		if !first && (uint64(p-arc.Start) >= arc.Len || p == arc.Start) {
			return false
		}
		first = false
		out = append(out, h)
		return true
	})
	return out
}

func (r *Ring) String() string {
	return fmt.Sprintf("Ring(n=%d, ρ=%.2f)", r.N(), r.Smoothness())
}
