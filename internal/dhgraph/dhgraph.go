// Package dhgraph constructs the discrete Distance Halving graph G⃗x of
// §2.1: the discretization of the continuous graph Gc over a decomposition
// of I into segments. A pair of servers (V_i, V_j) is an edge iff the
// continuous graph has an edge (y, z) with y ∈ s(x_i), z ∈ s(x_j); ring
// edges (V_i, V_{i+1}) are added so G⃗x contains a ring.
//
// The package also exposes the quantities bounded by Theorem 2.1 (at most
// 3n-1 continuous-derived edges for ∆ = 2) and Theorem 2.2 (out-degree at
// most ρ+4, in-degree at most ⌈2ρ⌉+1, again for ∆ = 2; Theorem 2.13 gives
// the Θ(∆) analogue).
//
// Adjacency is keyed by the ring's stable partition.Handle, not by sorted
// index: every edge list names its endpoints by an identifier that churn
// cannot shift. Insert and Remove therefore patch only the servers whose
// forward images or preimages intersect the changed segment — O(ρ·∆) of
// them by Theorem 2.2 — and touch nothing else: there is no renumbering
// pass, so a join or leave costs O(ρ·∆·log n) total, against the
// O(n·ρ·∆ + n log n) of a from-scratch Build. The §2.1 locality claim
// ("an update of the data structures of a constant number of servers")
// holds for the maintained graph verbatim. The out- and in-degree maxima
// are maintained by a multiset of degrees, so they too cost O(1) per
// patched list rather than an O(n) rescan.
//
// Only the forward edges and their reverses are stored: each server's
// record holds its out- and in-lists, the quantities Theorem 2.2 bounds.
// The undirected adjacency (out ∪ in ∪ ring edges) is derived on demand
// by AdjH, and MaxDegree is one O(n) ring scan that counts it without
// materializing it. Records live in a table indexed by handle, 8 B per
// handle ever issued, like the ring's own handle table.
package dhgraph

import (
	"slices"
	"sync"
	"sync/atomic"

	"condisc/internal/continuous"
	"condisc/internal/graph"
	"condisc/internal/interval"
	"condisc/internal/partition"
)

// Handle re-exports the ring's stable server identifier for brevity.
type Handle = partition.Handle

// serverState bundles one server's edge lists, both sorted by handle
// value. Keeping them in one record means a churn patch loads a server's
// whole edge state with a single table probe.
type serverState struct {
	out []Handle // forward-image targets (may include self)
	in  []Handle // forward-image sources (may include self)
}

// Graph is a discrete Distance Halving graph over a ring of segments. It is
// either frozen (built once with Build) or incrementally maintained through
// Insert/Remove, which mutate the underlying Ring and patch the graph.
//
// Concurrency: churn is two-phase. The admit phase (InsertAdmit /
// RemoveAdmit) mutates the ring and the srv table and must be serialized
// by the caller; the apply phase (InsertApply / RemoveApply / RemoveRetire)
// recomputes edge lists and is safe to run concurrently for patches whose
// lease spans (partition.Ring.LeaseSpan) are disjoint — disjoint patches
// touch disjoint serverState records and only read the (quiescent) ring
// and table, while the shared degree multisets and edge counter are
// guarded below. Insert and Remove run both phases back to back and
// remain the plain serial API.
type Graph struct {
	Ring  *partition.Ring
	Delta uint64

	// srv[h] holds the edge lists of the server with handle h, nil once it
	// has left (slot 0 is never used: handles start at 1). The table costs
	// 8 B per handle ever issued. It grows only in rebuild and the serial
	// admit phase, and RemoveRetire stores nil; the apply phase mutates the
	// records in place (disjoint ones, by lease).
	srv []*serverState

	contEdges atomic.Int64 // continuous-derived undirected edges excl. ring, incl. self-loops (Thm 2.1)

	statsMu sync.Mutex // guards the degree multisets and lastTouched
	outDeg  degBag     // multiset of out-list lengths (Thm 2.2 max in O(1))
	inDeg   degBag     // multiset of in-list lengths

	lastTouched int // servers whose lists were recomputed by the last Insert/Remove
}

// Build derives the discrete graph from the current decomposition. delta is
// the alphabet size ∆ >= 2 of the underlying De Bruijn-style continuous
// graph (§2.3); ∆ = 2 is the Distance Halving graph proper.
func Build(ring *partition.Ring, delta uint64) *Graph {
	if delta < 2 {
		panic("dhgraph: delta must be >= 2")
	}
	g := &Graph{Ring: ring, Delta: delta}
	g.rebuild()
	// Sanctioned publish point: construction is complete, so readers may
	// now resolve covers against the epoch snapshot. rebuild() itself never
	// publishes — mid-wave rebuilds must stay invisible to readers.
	ring.Publish()
	return g
}

// rebuild recomputes every list from the ring (the non-incremental path,
// used at construction and as the fallback for very small rings).
func (g *Graph) rebuild() {
	n := g.Ring.N()
	g.outDeg = degBag{}
	g.inDeg = degBag{}
	hs := make([]Handle, n)
	top := Handle(0)
	for i := range hs {
		hs[i] = g.Ring.HandleAt(i)
		top = max(top, hs[i])
	}
	g.srv = make([]*serverState, top+1)
	for _, h := range hs {
		g.srv[h] = &serverState{}
	}
	for i := 0; i < n; i++ {
		targets := g.computeOut(i)
		g.srv[hs[i]].out = targets
		g.outDeg.add(len(targets))
		for _, t := range targets {
			g.srv[t].in = append(g.srv[t].in, hs[i])
		}
	}
	g.contEdges.Store(0)
	for _, h := range hs {
		st := g.srv[h]
		slices.Sort(st.in)
		g.inDeg.add(len(st.in))
	}
	for _, h := range hs {
		for _, t := range g.srv[h].out {
			// Count each unordered pair {h,t} once: always when t >= h, and
			// for t < h only if the pair was not already seen as t -> h.
			if t >= h || !memSorted(g.srv[t].out, h) {
				g.contEdges.Add(1)
			}
		}
	}
	g.lastTouched = n
}

// computeOut returns the forward-image targets of the server currently at
// index i under the current ring, sorted by handle.
func (g *Graph) computeOut(i int) []Handle {
	var targets []Handle
	for _, img := range continuous.DeltaImages(g.Ring.Segment(i), g.Delta) {
		targets = append(targets, g.Ring.CoverHandlesOfArc(img)...)
	}
	slices.Sort(targets)
	return slices.Compact(targets)
}

// computeOutH is computeOut addressed by handle.
func (g *Graph) computeOutH(h Handle) []Handle {
	i, ok := g.Ring.IndexOfHandle(h)
	if !ok {
		return nil
	}
	return g.computeOut(i)
}

// mergeAdj computes the undirected neighbour list of the server with
// handle h, currently at ring index i, from the forward, backward and ring
// edges.
func (g *Graph) mergeAdj(h Handle, i int) []Handle {
	n := g.Ring.N()
	st := g.srv[h]
	lst := make([]Handle, 0, len(st.out)+len(st.in)+2)
	lst = append(lst, st.out...)
	lst = append(lst, st.in...)
	if n > 1 {
		lst = append(lst, g.Ring.HandleAt(g.Ring.Successor(i)), g.Ring.HandleAt(g.Ring.Predecessor(i)))
	}
	slices.Sort(lst)
	out := lst[:0]
	prev := Handle(0) // handles start at 1, so 0 never collides
	for _, v := range lst {
		if v == h || v == prev {
			continue
		}
		out = append(out, v)
		prev = v
	}
	return out
}

// replaceOut swaps a server's out-list, keeping the degree multiset true.
func (g *Graph) replaceOut(st *serverState, lst []Handle) {
	g.statsMu.Lock()
	g.outDeg.sub(len(st.out))
	g.outDeg.add(len(lst))
	g.statsMu.Unlock()
	st.out = lst
}

// replaceIn swaps a server's in-list, keeping the degree multiset true.
func (g *Graph) replaceIn(st *serverState, lst []Handle) {
	g.statsMu.Lock()
	g.inDeg.sub(len(st.in))
	g.inDeg.add(len(lst))
	g.statsMu.Unlock()
	st.in = lst
}

// setOut replaces server k's forward-target list, patching the reverse
// lists and the Theorem 2.1 edge count, and marking every server whose
// lists changed in dirty.
func (g *Graph) setOut(k Handle, newT []Handle, dirty map[Handle]struct{}) {
	sk := g.srv[k]
	old := sk.out
	g.replaceOut(sk, newT)
	i, j := 0, 0
	for i < len(old) || j < len(newT) {
		switch {
		case j >= len(newT) || (i < len(old) && old[i] < newT[j]):
			t := old[i] // removed forward edge k -> t
			i++
			st := g.srv[t]
			g.replaceIn(st, delSorted(st.in, k))
			if !memSorted(st.out, k) { // pair {k,t} gone (covers t == k)
				g.contEdges.Add(-1)
			}
			dirty[t] = struct{}{}
		case i >= len(old) || newT[j] < old[i]:
			t := newT[j] // added forward edge k -> t
			j++
			st := g.srv[t]
			g.replaceIn(st, insSorted(st.in, k))
			if t == k || !memSorted(st.out, k) { // pair {k,t} is new
				g.contEdges.Add(1)
			}
			dirty[t] = struct{}{}
		default:
			i++
			j++
		}
	}
	dirty[k] = struct{}{}
}

// affectedSources returns every server whose forward image can intersect
// the changed segment: the covers of the preimage arc (the ∆ forward maps
// share one contiguous preimage, continuous.DeltaBackImage). The segment is
// padded by a few ulps first because for non-power-of-two ∆ the computed
// image arcs (interval.DeltaMap) are only accurate to one ulp, so an image
// can leak into the changed region that the exact preimage just misses.
func (g *Graph) affectedSources(seg interval.Segment) []Handle {
	const pad = 64
	padded := interval.Segment{Start: seg.Start - pad, Len: seg.Len + 2*pad}
	if seg.Len == 0 || padded.Len < seg.Len { // full circle or overflow
		padded = interval.FullCircle
	}
	return g.Ring.CoverHandlesOfArc(continuous.DeltaBackImage(padded, g.Delta))
}

// InsertPatch is the deferred half of a two-phase Insert: everything the
// concurrent apply phase needs, captured while the ring mutation was
// serial. A nil patch means the admit phase already completed the insert
// (the tiny-ring rebuild path).
type InsertPatch struct {
	hNew, hPred, hSucc Handle
	oldSeg             interval.Segment // pred's pre-split segment: the changed region
}

// Insert splits the segment covering p by adding a new server there
// (Algorithm Join step 3) and patches the graph locally: only servers whose
// forward images or preimages intersect the split segment — O(ρ·∆) of them
// by Theorem 2.2 — have their edge lists recomputed. Nothing is renumbered:
// every untouched server's lists are byte-identical before and after. It
// reports the new server's index and whether the point was inserted (false
// if present).
func (g *Graph) Insert(p interval.Point) (int, bool) {
	pt, idx, ok := g.InsertAdmit(p)
	if !ok {
		return idx, false
	}
	if pt != nil {
		g.InsertApply(pt)
	}
	// Sanctioned publish point: the serial Insert is fully applied. Batched
	// churn (condisc) publishes once per wave instead, after item copies.
	g.Ring.Publish()
	return idx, true
}

// InsertAdmit is the serial phase of an Insert: it mutates the ring,
// registers the new server's (empty) record, and captures the patch the
// apply phase completes. On tiny rings the whole graph is rebuilt here and
// the returned patch is nil (nothing left to apply). ok is false when the
// point was already present.
func (g *Graph) InsertAdmit(p interval.Point) (*InsertPatch, int, bool) {
	idx, ok := g.Ring.Insert(p)
	if !ok {
		return nil, idx, false
	}
	n := g.Ring.N()
	if n <= 3 {
		g.rebuild()
		return nil, idx, true
	}
	predIdx := (idx - 1 + n) % n
	succIdx := (idx + 1) % n
	pt := &InsertPatch{
		hNew:  g.Ring.HandleAt(idx),
		hPred: g.Ring.HandleAt(predIdx),
		hSucc: g.Ring.HandleAt(succIdx),
	}
	// The segment that was split: pred's pre-insert segment [x_pred, x_succ).
	predPt := g.Ring.Point(predIdx)
	pt.oldSeg = interval.Segment{
		Start: predPt,
		Len:   interval.CWDist(predPt, g.Ring.Point(succIdx)),
	}
	// Handles are issued in order, so the new one lies past the table's end.
	g.srv = append(g.srv, make([]*serverState, int(pt.hNew)+1-len(g.srv))...)
	g.srv[pt.hNew] = &serverState{}
	return pt, idx, true
}

// InsertApply is the patch phase of an Insert: recompute the edge lists of
// the servers the split touched. It only reads the ring and the srv table,
// and writes serverState records inside the patch's lease span — so
// patches over disjoint spans may run concurrently, and the final lists
// are byte-identical to applying the same inserts serially.
func (g *Graph) InsertApply(pt *InsertPatch) {
	// Affected sources: the two servers whose segments changed shape, plus
	// every server with a forward image into the split segment.
	affected := map[Handle]struct{}{pt.hPred: {}, pt.hNew: {}}
	for _, k := range g.affectedSources(pt.oldSeg) {
		affected[k] = struct{}{}
	}
	dirty := map[Handle]struct{}{pt.hPred: {}, pt.hNew: {}, pt.hSucc: {}} // ring edges changed here
	for k := range affected {
		g.setOut(k, g.computeOutH(k), dirty)
	}
	g.statsMu.Lock()
	g.lastTouched = len(dirty)
	g.statsMu.Unlock()
}

// RemovePatch is the deferred half of a two-phase Remove; see InsertPatch.
// (The lease a caller acquires before RemoveAdmit covers the union of the
// absorbed segment and the absorbing predecessor's — computed by the
// caller from the pre-removal ring, since the lease must be held before
// the ring mutates.)
type RemovePatch struct {
	h, hPred, hSucc Handle
	absorbed        interval.Segment // the departing server's segment
}

// Remove deletes the server at index idx; its segment is absorbed by the
// ring predecessor (§2.1 Leave). As with Insert, only the servers whose
// forward images or preimages intersect the absorbed segment are patched.
func (g *Graph) Remove(idx int) {
	if pt := g.RemoveAdmit(idx); pt != nil {
		g.RemoveApply(pt)
		g.RemoveRetire(pt)
	}
	// Sanctioned publish point, mirroring Insert.
	g.Ring.Publish()
}

// RemoveAdmit is the serial phase of a Remove: capture the patch and
// delete the server's point from the ring. On tiny rings the whole graph
// is rebuilt here and nil is returned.
func (g *Graph) RemoveAdmit(idx int) *RemovePatch {
	n := g.Ring.N()
	if n <= 3 {
		g.Ring.RemoveAt(idx)
		g.rebuild()
		return nil
	}
	predIdx := (idx - 1 + n) % n
	pt := &RemovePatch{
		h:        g.Ring.HandleAt(idx),
		hPred:    g.Ring.HandleAt(predIdx),
		hSucc:    g.Ring.HandleAt((idx + 1) % n),
		absorbed: g.Ring.Segment(idx),
	}
	g.Ring.RemoveAt(idx)
	return pt
}

// RemoveApply is the patch phase of a Remove: unlink every edge incident
// to the departed server and recompute the lists its absorption touched.
// Like InsertApply it is concurrency-safe across disjoint lease spans.
// The departed record stays in the srv table (empty) until RemoveRetire
// so this phase performs no table writes.
func (g *Graph) RemoveApply(pt *RemovePatch) {
	h := pt.h
	// Affected sources: the absorbing predecessor plus every server with a
	// forward image into the absorbed segment. Handles stay valid across
	// the removal, so this set needs no index remapping. (The covers are
	// enumerated on the post-removal ring; the set is identical to the
	// pre-removal one minus the departed server, which is excluded anyway,
	// because removing the point only extends the predecessor's segment —
	// and the predecessor is explicitly included.)
	affected := map[Handle]struct{}{pt.hPred: {}}
	for _, k := range g.affectedSources(pt.absorbed) {
		if k != h {
			affected[k] = struct{}{}
		}
	}

	// Drop every edge incident to the departing server so no list retains a
	// reference to its handle.
	dirty := map[Handle]struct{}{pt.hPred: {}, pt.hSucc: {}} // new ring edge pred—succ
	g.setOut(h, nil, dirty)
	sh := g.srv[h]
	for _, s := range append([]Handle(nil), sh.in...) {
		st := g.srv[s]
		g.replaceOut(st, delSorted(st.out, h))
		g.contEdges.Add(-1) // out[h] is empty, so the pair {s, h} is gone
		dirty[s] = struct{}{}
	}
	g.replaceIn(sh, nil)
	delete(dirty, h)

	for k := range affected {
		g.setOut(k, g.computeOutH(k), dirty)
	}
	g.statsMu.Lock()
	g.lastTouched = len(dirty)
	g.statsMu.Unlock()
}

// RemoveRetire drops the departed server's (now empty) record from the
// srv table — the one table write of a Remove, run serially after every
// concurrent apply of the wave has finished.
func (g *Graph) RemoveRetire(pt *RemovePatch) {
	g.srv[pt.h] = nil
}

// LastTouched returns how many servers had their edge lists or ring
// edges changed by the most recent Insert or Remove — the churn blast
// radius the §2.1 locality claim bounds by O(ρ·∆). Since the edge lists
// are handle-keyed, this is the complete set of servers whose neighbours
// changed: no other server's lists are rewritten, renumbered, or even
// read. (Under a concurrent batch the value is that of whichever apply
// finished last.)
func (g *Graph) LastTouched() int {
	g.statsMu.Lock()
	defer g.statsMu.Unlock()
	return g.lastTouched
}

// degBag is a multiset of degrees supporting O(1) max queries under the
// local updates churn performs. Only nonzero degrees are tracked; max
// decays by scanning down, which is bounded by the degree values themselves
// (O(ρ·∆) on a smooth ring, Theorem 2.2).
type degBag struct {
	count []int
	max   int
}

func (b *degBag) add(d int) {
	if d == 0 {
		return
	}
	for len(b.count) <= d {
		b.count = append(b.count, 0)
	}
	b.count[d]++
	if d > b.max {
		b.max = d
	}
}

func (b *degBag) sub(d int) {
	if d == 0 {
		return
	}
	b.count[d]--
	for b.max > 0 && b.count[b.max] == 0 {
		b.max--
	}
}

func memSorted(lst []Handle, v Handle) bool {
	_, ok := slices.BinarySearch(lst, v)
	return ok
}

func insSorted(lst []Handle, v Handle) []Handle {
	i, ok := slices.BinarySearch(lst, v)
	if ok {
		return lst
	}
	return slices.Insert(lst, i, v)
}

func delSorted(lst []Handle, v Handle) []Handle {
	i, ok := slices.BinarySearch(lst, v)
	if !ok {
		return lst
	}
	return slices.Delete(lst, i, i+1)
}

// N returns the number of servers.
func (g *Graph) N() int { return g.Ring.N() }

// AdjH returns the undirected neighbour set of the server with handle h
// (ring edges included, self excluded), sorted by handle. It is derived
// from the stored lists on each call: a fresh slice, O(deg·log deg).
func (g *Graph) AdjH(h Handle) []Handle {
	i, ok := g.Ring.IndexOfHandle(h)
	if !ok {
		return nil
	}
	return g.mergeAdj(h, i)
}

// rec returns the record of the server with handle h, or nil if none.
func (g *Graph) rec(h Handle) *serverState {
	if h < Handle(len(g.srv)) {
		return g.srv[h]
	}
	return nil
}

// OutH returns the forward-image target set of the server with handle h
// (the directed edges Theorem 2.2 bounds; may include h itself).
func (g *Graph) OutH(h Handle) []Handle {
	if st := g.rec(h); st != nil {
		return st.out
	}
	return nil
}

// InH returns the set of servers with a forward image into h.
func (g *Graph) InH(h Handle) []Handle {
	if st := g.rec(h); st != nil {
		return st.in
	}
	return nil
}

// IsNeighborH reports whether the servers with handles hi and hj are
// neighbours (or hi == hj).
func (g *Graph) IsNeighborH(hi, hj Handle) bool {
	return hi == hj || memSorted(g.AdjH(hi), hj)
}

// EdgeCountNoRing returns the number of continuous-derived undirected edges
// (self-loops included), excluding the ring edges — the quantity Theorem
// 2.1 bounds by 3n-1 for ∆ = 2.
func (g *Graph) EdgeCountNoRing() int { return int(g.contEdges.Load()) }

// MaxOutNoRing returns the maximum out-degree without ring edges, bounded
// by ρ+4 for ∆ = 2 (Theorem 2.2).
func (g *Graph) MaxOutNoRing() int {
	g.statsMu.Lock()
	defer g.statsMu.Unlock()
	return g.outDeg.max
}

// MaxInNoRing returns the maximum in-degree without ring edges, bounded by
// ⌈2ρ⌉+1 for ∆ = 2 (Theorem 2.2).
func (g *Graph) MaxInNoRing() int {
	g.statsMu.Lock()
	defer g.statsMu.Unlock()
	return g.inDeg.max
}

// MaxDegree returns the maximum undirected degree including ring edges:
// one O(n) ring scan that counts each server's AdjH without building it.
func (g *Graph) MaxDegree() int {
	n := g.N()
	if n == 0 {
		return 0
	}
	best := 0
	pred, h := g.Ring.HandleAt(n-1), g.Ring.HandleAt(0)
	for i := 0; i < n; i++ {
		succ := g.Ring.HandleAt(g.Ring.Successor(i))
		best = max(best, g.degree(h, pred, succ))
		pred, h = h, succ
	}
	return best
}

// degree returns len(AdjH(h)) for the server h between ring neighbours
// pred and succ, counted without building the list: out and in are each
// duplicate-free, so |out ∪ in| is |out| + |in| − |out ∩ in|.
func (g *Graph) degree(h, pred, succ Handle) int {
	out, in := g.srv[h].out, g.srv[h].in
	listed := func(v Handle) bool { return memSorted(out, v) || memSorted(in, v) }
	d := len(out) + len(in)
	for _, v := range in {
		if memSorted(out, v) {
			d--
		}
	}
	if listed(h) { // a self-loop is no neighbour
		d--
	}
	// With two servers, pred and succ are one neighbour.
	if pred != h && !listed(pred) {
		d++
	}
	if succ != h && succ != pred && !listed(succ) {
		d++
	}
	return d
}

// Undirected converts to a generic index-addressed graph (for
// diameter/connectivity checks).
func (g *Graph) Undirected() *graph.Undirected {
	n := g.N()
	hs := make([]Handle, n)
	idx := make([]int, len(g.srv))
	for i := range hs {
		hs[i] = g.Ring.HandleAt(i)
		idx[hs[i]] = i
	}
	b := graph.NewBuilder(n)
	for i, h := range hs {
		for _, t := range g.mergeAdj(h, i) {
			b.AddEdge(i, idx[t])
		}
	}
	return b.Build()
}

// CoverOf returns the server covering point p.
func (g *Graph) CoverOf(p interval.Point) int { return g.Ring.Cover(p) }
