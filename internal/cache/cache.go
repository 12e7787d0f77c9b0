// Package cache implements the dynamic caching protocol of §3 — the
// paper's mechanism for relieving hot spots.
//
// For each data item i with h(i) = y, the path tree rooted at y
// (Definition 5) is the infinite binary subtree of the continuous graph in
// which node z has children ℓ(z) and r(z). Because the Distance Halving
// lookup's phase II ascends the path tree along a uniformly random branch
// (§3.1, "every request for i reaches y via a random path in the path
// tree"), replicating the item down the tree spreads requests evenly: a
// request is served by the deepest *active* (item-holding) node on its
// branch.
//
// The Continuous Hot Spots Protocol implemented here:
//
//  1. Each leaf of the active tree counts the requests it served this
//     epoch; once the count exceeds the threshold c, the leaf replicates
//     the item into both children, blocking itself from further hits.
//  2. At the end of an epoch, a parent of two active leaves that together
//     supplied the item fewer than c times each deletes both children.
//  3. Step 2 repeats recursively, collapsing the tree when demand fades.
//
// The guarantees reproduced by the experiments (Theorems 3.6 and 3.8): each
// server supplies O(log² n) requests whp under ANY batch of n requests,
// caches hold O(log n) items whp, and the protocol adds no latency.
//
// All per-server state is keyed by the ring's stable handle, and every
// non-root cached copy is additionally indexed by the point of I it
// physically occupies (copyIndex). Churn therefore touches only what it
// must: supply counters survive joins and leaves untouched, and
// InvalidateRegion locates the copies inside the changed segment in
// O(log C + k) for C total copies and k hits, instead of walking every
// item's whole tree.
package cache

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"sync"

	"condisc/internal/continuous"
	"condisc/internal/hashing"
	"condisc/internal/interval"
	"condisc/internal/partition"
	"condisc/internal/route"
	"condisc/internal/telemetry"
)

// nodeState is the per-active-node bookkeeping.
type nodeState struct {
	hits int // requests served by this node during the current epoch
}

// activeTree is the set of active (item-holding) path-tree nodes for one
// item. The root is always active: it is the item's home server copy.
type activeTree struct {
	root   interval.Point
	active map[continuous.TreeNode]*nodeState
}

func newActiveTree(root interval.Point) *activeTree {
	return &activeTree{
		root:   root,
		active: map[continuous.TreeNode]*nodeState{continuous.Root: {}},
	}
}

// isLeaf reports whether z is an active node with no active children.
func (t *activeTree) isLeaf(z continuous.TreeNode) bool {
	if _, ok := t.active[z]; !ok {
		return false
	}
	_, l := t.active[z.Child(0)]
	_, r := t.active[z.Child(1)]
	return !l && !r
}

// copyRef locates one non-root cached copy: the item it replicates and the
// path-tree node holding it. Its physical location is the node's point
// under the item's root.
type copyRef struct {
	p    interval.Point
	item string
	node continuous.TreeNode
}

func refLess(a, b copyRef) bool {
	if a.p != b.p {
		return a.p < b.p
	}
	if a.item != b.item {
		return a.item < b.item
	}
	if a.node.Depth != b.node.Depth {
		return a.node.Depth < b.node.Depth
	}
	return a.node.Path < b.node.Path
}

// copyIndex is the sorted-by-point index over all non-root cached copies
// across all items. Range queries cost O(log C + k); inserts and removes
// cost O(log C) plus a memmove bounded by the copy population C, which
// Observation 3.1 bounds by O(q/c) per item.
type copyIndex struct {
	refs []copyRef
}

func (ci *copyIndex) search(r copyRef) (int, bool) {
	i := sort.Search(len(ci.refs), func(k int) bool { return !refLess(ci.refs[k], r) })
	return i, i < len(ci.refs) && ci.refs[i] == r
}

func (ci *copyIndex) add(r copyRef) {
	if i, ok := ci.search(r); !ok {
		ci.refs = append(ci.refs, copyRef{})
		copy(ci.refs[i+1:], ci.refs[i:])
		ci.refs[i] = r
	}
}

func (ci *copyIndex) remove(r copyRef) {
	if i, ok := ci.search(r); ok {
		copy(ci.refs[i:], ci.refs[i+1:])
		ci.refs = ci.refs[:len(ci.refs)-1]
	}
}

// inRegion returns the copies physically located in seg. The segment may
// wrap past 1, in which case it is scanned as two ascending runs.
func (ci *copyIndex) inRegion(seg interval.Segment) []copyRef {
	if seg.Len == 0 { // full circle
		return append([]copyRef(nil), ci.refs...)
	}
	var out []copyRef
	run := func(from interval.Point) {
		i := sort.Search(len(ci.refs), func(k int) bool { return ci.refs[k].p >= from })
		for ; i < len(ci.refs) && seg.Contains(ci.refs[i].p); i++ {
			out = append(out, ci.refs[i])
		}
	}
	run(seg.Start)
	if seg.End() < seg.Start { // wraps: also scan [0, End)
		run(0)
	}
	return out
}

// System couples a Distance Halving network with per-item active trees.
type System struct {
	Net *route.Network
	H   *hashing.Func
	// C is the replication threshold c of protocol step 1 (typically
	// Θ(log n), §3.1). C <= 0 disables caching entirely (the ablation
	// baseline): every request routes to the item's home server.
	C int
	// CollapseC is the deletion threshold of protocol step 2. The paper
	// remarks that "it may be beneficial to set a different threshold in
	// Step (1) and Step (2); this adds stability to the active tree when
	// the rate of requests is close to the threshold". Zero means C (the
	// single-threshold protocol as stated).
	CollapseC int

	// mu guards trees, copies, and Supplied. Both sides take it in short
	// critical sections: churn mutators (InvalidateRegion, Forget) for the
	// whole mutation, the request path only around tree bookkeeping — the
	// routing itself runs lock-free against a ring snapshot, so a request
	// never waits out a churn event, only a map update.
	mu     sync.Mutex
	trees  map[string]*activeTree
	copies copyIndex
	// Supplied counts requests served by each server's cache (root copies
	// included) — the "number of times V supplies a data item" of Thm 3.8 —
	// keyed by the server's stable handle, so churn never moves or
	// re-buckets a surviving server's count.
	Supplied map[partition.Handle]int64
	// supplied is the aggregate telemetry counter over every supply event
	// (the scrapeable sum of the per-handle map above).
	supplied *telemetry.Counter
}

// NewSystem creates a caching system over the network with threshold c.
func NewSystem(net *route.Network, h *hashing.Func, c int) *System {
	if net.G.Delta != 2 {
		panic("cache: the hot-spot protocol requires the binary DH graph (∆=2)")
	}
	return &System{
		Net:      net,
		H:        h,
		C:        c,
		trees:    make(map[string]*activeTree),
		Supplied: make(map[partition.Handle]int64, net.G.N()),
		supplied: telemetry.Default.Counter("condisc_cache_supplied_total"),
	}
}

// tree returns (creating on demand) the active tree for an item. The
// caller must hold mu; the returned pointer stays valid after release
// (trees are never removed from the map).
func (s *System) tree(item string) *activeTree {
	t, ok := s.trees[item]
	if !ok {
		t = newActiveTree(s.H.Point(item))
		s.trees[item] = t
	}
	return t
}

// supplyAt charges one supplied request to the server covering p under
// the given ring snapshot. The caller must hold mu.
func (s *System) supplyAt(snap *partition.Snapshot, p interval.Point) {
	s.Supplied[snap.CoverHandle(p)]++
	s.supplied.Inc()
}

// SuppliedOf returns the supply count of the server with stable handle h.
func (s *System) SuppliedOf(h partition.Handle) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Supplied[h]
}

// Forget drops the departed server's supply counter.
func (s *System) Forget(h partition.Handle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.Supplied, h)
}

// Request routes one request for item from server src. The request follows
// a Distance Halving lookup toward h(item) but is served by the first
// active tree node its phase II encounters. It returns the routing path
// (for latency verification: never longer than the plain lookup) and the
// depth of the serving node.
func (s *System) Request(src int, item string, rng *rand.Rand) ([]int, int) {
	s.mu.Lock()
	t := s.tree(item)
	s.mu.Unlock()
	y := t.root
	snap := s.Net.G.Ring.Snapshot()

	if s.C <= 0 {
		// Baseline: no caching; full route to the home server.
		path := s.Net.DHLookup(src, y, rng)
		s.mu.Lock()
		s.Supplied[snap.HandleAt(path[len(path)-1])]++
		s.supplied.Inc()
		s.mu.Unlock()
		return path, 0
	}

	var served continuous.TreeNode
	found := false
	path, depth := s.Net.DHLookupStoppable(src, y, rng,
		func(digits []uint64, j int, q interval.Point) bool {
			node := nodeAt(digits, j)
			s.mu.Lock()
			_, ok := t.active[node]
			s.mu.Unlock()
			if ok {
				served, found = node, true
				return true
			}
			return false
		})
	if !found {
		// The walk was never intercepted; the root (depth 0) serves. This
		// happens only when phase I ended adjacent to the target already.
		served = continuous.Root
	}

	s.mu.Lock()
	st := t.active[served]
	if st == nil {
		// The serving node was invalidated by churn between the probe and
		// this bookkeeping; the root (never invalidated) serves instead.
		served = continuous.Root
		st = t.active[served]
	}
	st.hits++
	s.supplyAt(snap, served.PointUnder(y))

	// Step 1: a leaf hit more than c times replicates into its children.
	if st.hits > s.C && t.isLeaf(served) {
		s.activate(t, item, served.Child(0))
		s.activate(t, item, served.Child(1))
	}
	s.mu.Unlock()
	return path, depth
}

// activate adds a non-root node to the tree and the point index.
func (s *System) activate(t *activeTree, item string, z continuous.TreeNode) {
	t.active[z] = &nodeState{}
	s.copies.add(copyRef{p: z.PointUnder(t.root), item: item, node: z})
}

// deactivate removes a non-root node from the tree and the point index.
func (s *System) deactivate(t *activeTree, item string, z continuous.TreeNode) {
	delete(t.active, z)
	s.copies.remove(copyRef{p: z.PointUnder(t.root), item: item, node: z})
}

// nodeAt converts a phase-I digit string prefix of length j into the
// path-tree node the lookup's phase II occupies at depth j.
func nodeAt(digits []uint64, j int) continuous.TreeNode {
	var tau uint64
	for i := 0; i < j && i < 64; i++ {
		tau |= (digits[i] & 1) << i
	}
	return continuous.EntryNode(tau, uint8(j))
}

// InvalidateRegion deletes the cached copies physically located in seg —
// the active tree nodes whose points fall in the changed segment — together
// with their active subtrees, so the active sets stay rooted subtrees of
// the path tree. Roots (the items' home copies) are never deleted; they
// migrate with the item store. Everything outside seg survives, which is
// what makes churn local for the §3 protocol: a join or leave invalidates
// only the copies a single server held, not every epoch's state. The doomed
// copies are found through the point index, so the cost is O(log C + k·d)
// for k copies in the region with active subtrees of total size d — the
// total item count never enters.
func (s *System) InvalidateRegion(seg interval.Segment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ref := range s.copies.inRegion(seg) {
		t, ok := s.trees[ref.item]
		if !ok {
			continue
		}
		s.deleteSubtree(t, ref.item, ref.node)
	}
}

// deleteSubtree removes z and every active descendant (z may already be
// gone if an ancestor was deleted first).
func (s *System) deleteSubtree(t *activeTree, item string, z continuous.TreeNode) {
	if _, ok := t.active[z]; !ok {
		return
	}
	stack := []continuous.TreeNode{z}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := t.active[n]; !ok {
			continue
		}
		s.deactivate(t, item, n)
		stack = append(stack, n.Child(0), n.Child(1))
	}
}

// EndEpoch performs steps 2–3 of the protocol for every tree: recursively
// collapse sibling leaves that each supplied fewer than c requests, then
// reset the epoch counters.
func (s *System) EndEpoch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for item, t := range s.trees {
		s.collapse(t, item)
		for _, st := range t.active {
			st.hits = 0
		}
	}
}

// collapse repeatedly removes cold sibling leaf pairs.
func (s *System) collapse(t *activeTree, item string) {
	threshold := s.CollapseC
	if threshold <= 0 {
		threshold = s.C
	}
	for {
		var victims []continuous.TreeNode
		//condisc:allow detpath the victim set is fixed before any deactivate, and deactivate (map delete, sorted-index remove) ends in the same state in any order
		for z := range t.active {
			if z.Depth == 0 {
				continue
			}
			// Each pair is visited from both leaves; take it from the 0 child.
			if z.Path>>(z.Depth-1)&1 != 0 || !t.isLeaf(z) {
				continue
			}
			sib := z.Parent().Child(1)
			sst, ok := t.active[sib]
			if !ok || !t.isLeaf(sib) {
				continue
			}
			if t.active[z].hits < threshold && sst.hits < threshold {
				victims = append(victims, z, sib)
			}
		}
		if len(victims) == 0 {
			return
		}
		for _, v := range victims {
			s.deactivate(t, item, v)
		}
	}
}

// ActiveNodes returns the number of active nodes (cached copies, root
// included) for an item, or 0 if the item is unknown.
func (s *System) ActiveNodes(item string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.trees[item]; ok {
		return len(t.active)
	}
	return 0
}

// MaxDepth returns the depth of the deepest active node for an item.
func (s *System) MaxDepth(item string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.trees[item]
	if !ok {
		return 0
	}
	max := 0
	for z := range t.active {
		if int(z.Depth) > max {
			max = int(z.Depth)
		}
	}
	return max
}

// ServerCacheSizes returns, per current ring index, the number of distinct
// cached copies each server stores across all items (excluding depth-0
// roots, which are the original copies) — Theorem 3.8(i)'s quantity.
func (s *System) ServerCacheSizes() []int {
	snap := s.Net.G.Ring.Snapshot()
	sizes := make([]int, snap.N())
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ref := range s.copies.refs {
		sizes[snap.Cover(ref.p)]++
	}
	return sizes
}

// TotalCopies returns the total number of non-root cached copies across
// the network (Observation 3.1 bounds it by 4q/c per item).
func (s *System) TotalCopies() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.copies.refs)
}

// UpdateItem propagates a content update from the item's root along the
// active tree (§3.4, "Content Update"). It returns the number of update
// messages (one per non-root active node) and the parallel time (the tree
// depth), which the paper bounds by O(log(q/c)) <= O(log n).
func (s *System) UpdateItem(item string) (messages, parallelTime int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.trees[item]
	if !ok {
		return 0, 0
	}
	// BFS from the root through active children.
	frontier := []continuous.TreeNode{continuous.Root}
	for len(frontier) > 0 {
		var next []continuous.TreeNode
		for _, z := range frontier {
			for b := byte(0); b < 2; b++ {
				c := z.Child(b)
				if _, ok := t.active[c]; ok {
					messages++
					next = append(next, c)
				}
			}
		}
		if len(next) > 0 {
			parallelTime++
		}
		frontier = next
	}
	return messages, parallelTime
}

// ResetLoadStats zeroes the network load and supply counters (e.g. between
// epochs of an experiment).
func (s *System) ResetLoadStats() {
	s.Net.ResetLoad()
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.Supplied)
}

// DumpState writes a canonical, deterministic serialization of the whole
// caching state — thresholds, per-item active trees with epoch hit counts,
// the copy index, and the supply counters — for differential testing: two
// systems that evolved through equivalent histories produce byte-identical
// dumps (internal/churntest compares a concurrent churn run against its
// serial replay with it).
func (s *System) DumpState(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := fmt.Fprintf(w, "cache C=%d collapseC=%d copies=%d\n", s.C, s.CollapseC, len(s.copies.refs)); err != nil {
		return err
	}
	items := make([]string, 0, len(s.trees))
	for item := range s.trees {
		items = append(items, item)
	}
	sort.Strings(items)
	for _, item := range items {
		t := s.trees[item]
		nodes := make([]continuous.TreeNode, 0, len(t.active))
		for z := range t.active {
			nodes = append(nodes, z)
		}
		sort.Slice(nodes, func(i, j int) bool {
			if nodes[i].Depth != nodes[j].Depth {
				return nodes[i].Depth < nodes[j].Depth
			}
			return nodes[i].Path < nodes[j].Path
		})
		fmt.Fprintf(w, "tree %q root=%d\n", item, uint64(t.root))
		for _, z := range nodes {
			fmt.Fprintf(w, "  node d=%d path=%d hits=%d\n", z.Depth, z.Path, t.active[z].hits)
		}
	}
	for _, ref := range s.copies.refs {
		fmt.Fprintf(w, "copy p=%d item=%q d=%d path=%d\n", uint64(ref.p), ref.item, ref.node.Depth, ref.node.Path)
	}
	hs := make([]partition.Handle, 0, len(s.Supplied))
	for h := range s.Supplied {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	for _, h := range hs {
		if _, err := fmt.Fprintf(w, "supplied h=%d n=%d\n", h, s.Supplied[h]); err != nil {
			return err
		}
	}
	return nil
}
