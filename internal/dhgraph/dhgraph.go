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
// Only the forward edges are stored: each server's record holds its
// out-list and its in-degree, and records live by value in a table
// indexed by handle, 32 B per handle ever issued. The in-list is derived
// on demand by InH the way §2 defines it — the covers of the segment's
// preimage, kept if their out-list names the server — so it is exact, not
// a re-derivation in floating point. The undirected adjacency (out ∪ in ∪
// ring edges) is derived by AdjH, and MaxDegree is one O(n) ring scan
// that counts it through the out-lists without materializing anything.
package dhgraph

import (
	"slices"

	"condisc/internal/continuous"
	"condisc/internal/graph"
	"condisc/internal/interval"
	"condisc/internal/partition"
)

// Handle re-exports the ring's stable server identifier for brevity.
type Handle = partition.Handle

// serverState is one server's stored edge state: its out-list, sorted by
// handle value, and how many servers list it in theirs (Theorem 2.2's
// in-degree; the list itself is InH's to derive).
type serverState struct {
	out []Handle // forward-image targets (may include self)
	in  int      // forward-image sources (may include self)
}

// Graph is a discrete Distance Halving graph over a ring of segments. It is
// either frozen (built once with Build) or incrementally maintained through
// Insert/Remove, which mutate the underlying Ring and patch the graph.
//
// Concurrency: Insert and Remove are single-writer, like the Ring they
// mutate; the caller serializes churn. Concurrent readers never touch the
// graph: they resolve covers against the ring's published epoch snapshot.
type Graph struct {
	Ring  *partition.Ring
	Delta uint64

	// srv[h] holds the edge state of the server with handle h, zero once it
	// has left (slot 0 is never used: handles start at 1). The table costs
	// 32 B per handle ever issued.
	srv []serverState

	contEdges int    // continuous-derived undirected edges excl. ring, incl. self-loops (Thm 2.1)
	outDeg    degBag // multiset of out-list lengths (Thm 2.2 max in O(1))
	inDeg     degBag // multiset of in-list lengths

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
	// The package's one publish point: construction is complete, so readers
	// may now resolve covers against the epoch snapshot. Insert and Remove
	// never publish — the churn owner does, after the event's item copy.
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
	g.srv = make([]serverState, top+1)
	for i := 0; i < n; i++ {
		targets := g.computeOut(i)
		g.srv[hs[i]].out = targets
		g.outDeg.add(len(targets))
		for _, t := range targets {
			g.srv[t].in++
		}
	}
	g.contEdges = 0
	for _, h := range hs {
		g.inDeg.add(g.srv[h].in)
	}
	for _, h := range hs {
		for _, t := range g.srv[h].out {
			// Count each unordered pair {h,t} once: always when t >= h, and
			// for t < h only if the pair was not already seen as t -> h.
			if t >= h || !memSorted(g.srv[t].out, h) {
				g.contEdges++
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
	lst := append(g.inAt(h, i), g.srv[h].out...)
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
	g.outDeg.sub(len(st.out))
	g.outDeg.add(len(lst))
	st.out = lst
}

// addIn moves a server's in-degree by d, keeping the degree multiset true.
func (g *Graph) addIn(st *serverState, d int) {
	g.inDeg.sub(st.in)
	st.in += d
	g.inDeg.add(st.in)
}

// setOut replaces server k's forward-target list, patching the targets'
// in-degrees and the Theorem 2.1 edge count, and marking every server
// whose lists changed in dirty.
func (g *Graph) setOut(k Handle, newT []Handle, dirty map[Handle]struct{}) {
	old := g.srv[k].out
	g.replaceOut(&g.srv[k], newT)
	i, j := 0, 0
	for i < len(old) || j < len(newT) {
		switch {
		case j >= len(newT) || (i < len(old) && old[i] < newT[j]):
			t := old[i] // removed forward edge k -> t
			i++
			st := &g.srv[t]
			g.addIn(st, -1)
			if !memSorted(st.out, k) { // pair {k,t} gone (covers t == k)
				g.contEdges--
			}
			dirty[t] = struct{}{}
		case i >= len(old) || newT[j] < old[i]:
			t := newT[j] // added forward edge k -> t
			j++
			st := &g.srv[t]
			g.addIn(st, +1)
			if t == k || !memSorted(st.out, k) { // pair {k,t} is new
				g.contEdges++
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

// Insert splits the segment covering p by adding a new server there
// (Algorithm Join step 3) and patches the graph locally: only servers whose
// forward images or preimages intersect the split segment — O(ρ·∆) of them
// by Theorem 2.2 — have their edge lists recomputed. Nothing is renumbered:
// every untouched server's lists are byte-identical before and after. It
// reports the new server's index and whether the point was inserted (false
// if present).
//
// Insert does not publish an epoch: the owner of the churn event publishes
// once the event's item copies have landed (see Build).
func (g *Graph) Insert(p interval.Point) (int, bool) {
	idx, ok := g.Ring.Insert(p)
	if !ok {
		return idx, false
	}
	n := g.Ring.N()
	if n <= 3 {
		g.rebuild()
		return idx, true
	}
	predIdx := (idx - 1 + n) % n
	succIdx := (idx + 1) % n
	hNew, hPred, hSucc := g.Ring.HandleAt(idx), g.Ring.HandleAt(predIdx), g.Ring.HandleAt(succIdx)
	// The segment that was split: pred's pre-insert segment [x_pred, x_succ).
	predPt := g.Ring.Point(predIdx)
	oldSeg := interval.Segment{Start: predPt, Len: interval.CWDist(predPt, g.Ring.Point(succIdx))}
	// Handles are issued in order, so the new one lies past the table's end.
	g.srv = append(g.srv, make([]serverState, int(hNew)+1-len(g.srv))...)

	// Affected sources: the two servers whose segments changed shape, plus
	// every server with a forward image into the split segment.
	affected := map[Handle]struct{}{hPred: {}, hNew: {}}
	for _, k := range g.affectedSources(oldSeg) {
		affected[k] = struct{}{}
	}
	dirty := map[Handle]struct{}{hPred: {}, hNew: {}, hSucc: {}} // ring edges changed here
	for k := range affected {
		g.setOut(k, g.computeOutH(k), dirty)
	}
	g.lastTouched = len(dirty)
	return idx, true
}

// Remove deletes the server at index idx; its segment is absorbed by the
// ring predecessor (§2.1 Leave). As with Insert, only the servers whose
// forward images or preimages intersect the absorbed segment are patched,
// and no epoch is published.
func (g *Graph) Remove(idx int) {
	n := g.Ring.N()
	if n <= 3 {
		g.Ring.RemoveAt(idx)
		g.rebuild()
		return
	}
	predIdx := (idx - 1 + n) % n
	h, hPred, hSucc := g.Ring.HandleAt(idx), g.Ring.HandleAt(predIdx), g.Ring.HandleAt((idx+1)%n)
	absorbed := g.Ring.Segment(idx)

	// Affected sources: the absorbing predecessor plus every server with a
	// forward image into the absorbed segment. Handles stay valid across
	// the removal, so this set needs no index remapping. The covers are
	// enumerated on the pre-removal ring, where they are also the
	// candidates of h's own in-list (inAt); the post-removal set would be
	// the same minus h, because removing the point only extends the
	// predecessor's segment — and the predecessor is explicitly included.
	affected := map[Handle]struct{}{hPred: {}}
	var sources []Handle // h's in-list, self-loop excluded
	for _, k := range g.affectedSources(absorbed) {
		if k != h {
			affected[k] = struct{}{}
			if memSorted(g.srv[k].out, h) {
				sources = append(sources, k)
			}
		}
	}
	g.Ring.RemoveAt(idx)

	// Drop every edge incident to the departing server so no list retains a
	// reference to its handle.
	dirty := map[Handle]struct{}{hPred: {}, hSucc: {}} // new ring edge pred—succ
	g.setOut(h, nil, dirty)
	for _, s := range sources {
		st := &g.srv[s]
		g.replaceOut(st, delSorted(st.out, h))
		g.contEdges-- // out[h] is empty, so the pair {s, h} is gone
		dirty[s] = struct{}{}
	}
	g.inDeg.sub(g.srv[h].in)
	g.srv[h] = serverState{}
	delete(dirty, h)

	for k := range affected {
		g.setOut(k, g.computeOutH(k), dirty)
	}
	g.lastTouched = len(dirty)
}

// LastTouched returns how many servers had their edge lists or ring
// edges changed by the most recent Insert or Remove — the churn blast
// radius the §2.1 locality claim bounds by O(ρ·∆). Since the edge lists
// are handle-keyed, this is the complete set of servers whose neighbours
// changed: no other server's lists are rewritten, renumbered, or even
// read.
func (g *Graph) LastTouched() int { return g.lastTouched }

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

// OutH returns the forward-image target set of the server with handle h
// (the directed edges Theorem 2.2 bounds; may include h itself).
func (g *Graph) OutH(h Handle) []Handle {
	if h < Handle(len(g.srv)) {
		return g.srv[h].out
	}
	return nil
}

// InH returns the set of servers with a forward image into h, sorted by
// handle: a fresh slice, derived on each call.
func (g *Graph) InH(h Handle) []Handle {
	i, ok := g.Ring.IndexOfHandle(h)
	if !ok {
		return nil
	}
	return g.inAt(h, i)
}

// inAt derives the in-list of the server with handle h, currently at ring
// index i: of the servers whose forward image can reach its segment
// (affectedSources), those whose out-list names h.
func (g *Graph) inAt(h Handle, i int) []Handle {
	var in []Handle
	for _, t := range g.affectedSources(g.Ring.Segment(i)) {
		if memSorted(g.srv[t].out, h) {
			in = append(in, t)
		}
	}
	slices.Sort(in)
	return in
}

// IsNeighborH reports whether the servers with handles hi and hj are
// neighbours (or hi == hj).
func (g *Graph) IsNeighborH(hi, hj Handle) bool {
	return hi == hj || memSorted(g.AdjH(hi), hj)
}

// EdgeCountNoRing returns the number of continuous-derived undirected edges
// (self-loops included), excluding the ring edges — the quantity Theorem
// 2.1 bounds by 3n-1 for ∆ = 2.
func (g *Graph) EdgeCountNoRing() int { return g.contEdges }

// MaxOutNoRing returns the maximum out-degree without ring edges, bounded
// by ρ+4 for ∆ = 2 (Theorem 2.2).
func (g *Graph) MaxOutNoRing() int { return g.outDeg.max }

// MaxInNoRing returns the maximum in-degree without ring edges, bounded by
// ⌈2ρ⌉+1 for ∆ = 2 (Theorem 2.2).
func (g *Graph) MaxInNoRing() int { return g.inDeg.max }

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
// duplicate-free, so |out ∪ in| is |out| + |in| − |out ∩ in|, and v is in
// h's in-list iff h is in v's out-list.
func (g *Graph) degree(h, pred, succ Handle) int {
	out := g.srv[h].out
	listed := func(v Handle) bool { return memSorted(out, v) || memSorted(g.srv[v].out, h) }
	d := len(out) + g.srv[h].in
	for _, v := range out {
		if memSorted(g.srv[v].out, h) {
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
