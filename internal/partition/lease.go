package partition

// This file implements arc leases — the per-region locking primitive that
// makes churn concurrent for disjoint neighbourhoods. The paper's locality
// theorem (§2.1, Theorem 2.2) says a Join or Leave rewrites the state of
// only the O(ρ·∆) servers whose segments, forward images, or preimages
// intersect the changed segment; everything else is untouched. An arc
// lease turns that theorem into a synchronization discipline: a churn
// event acquires the set of arcs it may read or write (the changed region
// plus its image/preimage span, LeaseSpan), and two events proceed
// concurrently exactly when their span sets are disjoint. Admission never
// blocks: the batch executor probes with TryAcquire during its serial
// admit phase and defers a refused event to the next wave, which starts
// only after every lease of this wave is released — so a deferred event
// always observes the state its conflicting predecessors committed, and
// events of one batch are admitted in batch order.
//
// Deadlock freedom: a lease's whole span set is acquired atomically under
// one registry lock and nothing ever waits while holding a lease, so there
// is no hold-and-wait and no ordering discipline (such as sorting spans by
// ring position) is required of callers.

import (
	"sync"

	"condisc/internal/continuous"
	"condisc/internal/interval"
)

// Lease is a held claim over a set of arcs of the ring.
type Lease struct {
	spans []interval.Segment
}

// SpansOverlap reports whether any arc of a intersects any arc of b.
func SpansOverlap(a, b []interval.Segment) bool {
	for _, s := range a {
		for _, o := range b {
			if s.Overlaps(o) {
				return true
			}
		}
	}
	return false
}

// Leases is a registry of arc leases over one ring. The zero value is not
// usable; construct with NewLeases.
type Leases struct {
	mu   sync.Mutex
	held map[*Lease]struct{}
}

// NewLeases returns an empty lease registry.
func NewLeases() *Leases {
	return &Leases{held: make(map[*Lease]struct{})}
}

// conflictsHeldLocked reports whether spans overlap any held lease.
func (ls *Leases) conflictsHeldLocked(spans []interval.Segment) bool {
	for h := range ls.held {
		if SpansOverlap(h.spans, spans) {
			return true
		}
	}
	return false
}

// TryAcquire atomically acquires a lease over all spans if no held lease
// overlaps any of them, reporting whether it succeeded.
func (ls *Leases) TryAcquire(spans ...interval.Segment) (*Lease, bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.conflictsHeldLocked(spans) {
		return nil, false
	}
	l := &Lease{spans: append([]interval.Segment(nil), spans...)}
	ls.held[l] = struct{}{}
	return l, true
}

// Release returns the lease's arcs to the registry. Releasing a lease
// twice (or one never acquired) is a no-op.
func (ls *Leases) Release(l *Lease) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	delete(ls.held, l)
}

// sourcePad mirrors the ulp padding the incremental graph engine applies
// before enumerating preimage covers (dhgraph.affectedSources): the lease
// must own the segment of every server that engine will patch.
const sourcePad = 64

// padUlps widens the arc by p ulps on both sides (full circle on
// overflow).
func padUlps(s interval.Segment, p uint64) interval.Segment {
	if s.Len == 0 || p == 0 {
		return s
	}
	widened := s.Len + 2*p
	if widened < s.Len { // overflow: the arc is nearly the whole circle
		return interval.FullCircle
	}
	return interval.Segment{Start: s.Start - interval.Point(p), Len: widened}
}

// snapToCovers extends the arc to the full segments of its boundary
// covers: the start moves back to the start of the segment covering it,
// and the end forward to the end of the segment covering the last point.
// A churn event that enumerates the covers of an arc reads — and may
// rewrite — the state of servers whose segments stick out past the arc's
// ends; snapping makes the lease own those segments entirely, so span
// disjointness implies touched-server disjointness.
func (r *Ring) snapToCovers(arc interval.Segment) interval.Segment {
	if arc.Len == 0 || r.N() <= 1 {
		return interval.FullCircle
	}
	startSeg := r.SegmentOf(arc.Start)
	endSeg := r.SegmentOf(arc.End() - 1)
	if startSeg.Len == 0 || endSeg.Len == 0 {
		return interval.FullCircle
	}
	start := startSeg.Start
	end := endSeg.End()
	ln := interval.CWDist(start, end)
	if ln < arc.Len { // the snapped arc wrapped all the way around
		return interval.FullCircle
	}
	return interval.Segment{Start: start, Len: ln}
}

// LeaseSpan computes the arcs a churn event over the changed region must
// lease: the region itself, its ∆-ary preimage arc (the segments whose
// forward images the event rewrites), and the ∆ forward images of that
// preimage (the targets whose backward lists the rewrites patch) — each
// padded and snapped to cover boundaries. changed is the segment whose
// shape the event alters: for a Join, the predecessor's pre-split
// segment; for a Leave, the union of the leaver's and the absorbing
// predecessor's segments. Two events whose LeaseSpans are disjoint touch
// disjoint server state, so their graph, store, and cache updates commute.
func (r *Ring) LeaseSpan(changed interval.Segment, delta uint64) []interval.Segment {
	if changed.Len == 0 {
		return []interval.Segment{interval.FullCircle}
	}
	// One extra ulp past the end so the ring successor of the changed
	// region (whose adjacency list gains or loses a ring edge) is owned by
	// the span.
	region := interval.Segment{Start: changed.Start, Len: changed.Len + 1}
	if region.Len == 0 {
		region = interval.FullCircle
	}
	region = r.snapToCovers(region)
	if region.Len == 0 {
		return []interval.Segment{interval.FullCircle}
	}
	// The preimage arc, padded exactly as the graph engine pads it before
	// enumerating the affected sources.
	back := r.snapToCovers(continuous.DeltaBackImage(padUlps(region, sourcePad), delta))
	spans := []interval.Segment{region, back}
	if back.Len == 0 {
		return []interval.Segment{interval.FullCircle}
	}
	// The ∆ forward images of both arcs: the servers of `region` and of
	// `back` have their out-lists recomputed, which patches the in-lists
	// of every cover of their segments' images. For power-of-two ∆ the
	// image maps are exact bit shifts; otherwise they carry one-ulp
	// rounding, mirrored here with a small pad.
	imgPad := uint64(0)
	if delta&(delta-1) != 0 {
		imgPad = 2
	}
	for _, arc := range []interval.Segment{region, back} {
		for _, img := range continuous.DeltaImages(arc, delta) {
			spans = append(spans, r.snapToCovers(padUlps(img, imgPad)))
		}
	}
	for _, s := range spans {
		if s.Len == 0 {
			return []interval.Segment{interval.FullCircle}
		}
	}
	return spans
}
