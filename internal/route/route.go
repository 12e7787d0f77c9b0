// Package route implements the lookup algorithms of §2.2 over the discrete
// Distance Halving graph, with per-server load metering for the congestion
// and permutation-routing experiments (Theorems 2.7–2.11, 2.13).
//
// Two algorithms are provided, mirroring the paper:
//
//   - Fast Lookup (§2.2.1): the deterministic walk along the backward edges
//     determined by the binary (or base-∆) representation of the source's
//     segment midpoint. Path length <= log_∆ n + log_∆ ρ + 1 (Corollary
//     2.5), congestion Θ(log n / n) for random lookups (Theorem 2.7).
//
//   - Distance Halving Lookup (§2.2.2): the two-phase randomized scheme à
//     la Valiant: phase I walks source and target simultaneously along a
//     random digit string until they collide; phase II retraces the target
//     walk backwards. Path length <= 2 log n + 2 log ρ (Theorem 2.8),
//     congestion Θ(log n / n) even for worst-case permutation routing
//     (Theorems 2.9–2.11).
//
// Concurrency: every lookup resolves the ring against one epoch snapshot
// (partition.Ring.Snapshot) taken at entry, and decides neighbourhood
// geometrically from that snapshot — it never reads the live ring, the
// dhgraph srv table, or any state a churn event mutates. Lookups are
// therefore wait-free under concurrent churn: a lookup sees exactly the
// pre- or post-event decomposition, never a torn mix.
//
// Load metering is a page table of atomic counters indexed by
// partition.Handle: a lookup counts a visit with one atomic add, taking no
// lock. Handles are issued 1, 2, 3, … and never reused, so the meter holds
// 8 B per handle ever issued, not per live server. ResetLoad and Forget
// store 0 in place, so an add racing ResetLoad is either zeroed or
// counted, never lost.
package route

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"condisc/internal/continuous"
	"condisc/internal/dhgraph"
	"condisc/internal/interval"
	"condisc/internal/partition"
	"condisc/internal/telemetry"
)

// loadPageBits sizes the meter's pages: 1<<10 counters, 8 KiB each.
const loadPageBits = 10

type loadPage [1 << loadPageBits]atomic.Int64

// loadMeter's page i counts handles [i<<loadPageBits, (i+1)<<loadPageBits).
// Its directory is copy-on-write: read lock-free, grown under mu by copying
// the page pointers, never the pages, so a regrowth loses no count.
type loadMeter struct {
	pages atomic.Pointer[[]*loadPage]
	mu    sync.Mutex
}

// dir returns the current page directory (nil before the first count).
func (m *loadMeter) dir() []*loadPage {
	if p := m.pages.Load(); p != nil {
		return *p
	}
	return nil
}

// counter returns h's counter, or nil if h lies past the last page.
func (m *loadMeter) counter(h partition.Handle) *atomic.Int64 {
	if dir, i := m.dir(), uint64(h)>>loadPageBits; i < uint64(len(dir)) {
		return &dir[i][h&(1<<loadPageBits-1)]
	}
	return nil
}

// at returns h's counter, first adding pages up to h's if h lies past the
// last one.
func (m *loadMeter) at(h partition.Handle) *atomic.Int64 {
	if c := m.counter(h); c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.counter(h); c != nil {
		return c // another lookup grew it first
	}
	old := m.dir()
	dir := make([]*loadPage, uint64(h)>>loadPageBits+1)
	copy(dir, old)
	for i := len(old); i < len(dir); i++ {
		dir[i] = new(loadPage)
	}
	m.pages.Store(&dir)
	return m.counter(h)
}

// each calls fn with every counter and the handle it counts.
func (m *loadMeter) each(fn func(h partition.Handle, c *atomic.Int64)) {
	for i, p := range m.dir() {
		for j := range p {
			fn(partition.Handle(i<<loadPageBits|j), &p[j])
		}
	}
}

// Network wraps a discrete DH graph with message-load accounting.
type Network struct {
	G *dhgraph.Graph

	// load counts the messages each server has handled (every appearance
	// on a lookup path, origin included — Definition 3's notion of "active
	// in a routing"), keyed by the server's stable handle. Because the key
	// never shifts, metering survives churn with zero copying: a join
	// touches no counter, a leave zeroes one (Forget). It is a page table
	// indexed by handle, 8 B per handle ever issued (not per live server);
	// lookups add to it without a lock, and an add racing ResetLoad is
	// zeroed or counted, never lost. Read it through LoadOf/LoadMap/MaxLoad.
	load loadMeter

	// lookups/hops are pre-resolved telemetry handles (see SetTelemetry);
	// recording is a pure atomic write, so lookups stay wait-free. They
	// observe only — no decision ever reads them back, which keeps every
	// differential digest identical with telemetry on or off.
	lookups *telemetry.Counter
	hops    *telemetry.Histogram
}

// NewNetwork creates a metered network over g, reporting to the default
// telemetry registry.
func NewNetwork(g *dhgraph.Graph) *Network {
	nw := &Network{G: g}
	nw.SetTelemetry(telemetry.Default)
	return nw
}

// SetTelemetry redirects the network's lookup metrics to reg (per-node
// registries in tests and E32).
func (nw *Network) SetTelemetry(reg *telemetry.Registry) {
	nw.lookups = reg.Counter("condisc_route_lookups_total")
	nw.hops = reg.Histogram("condisc_route_lookup_hops")
}

// finish tallies one finished lookup path and returns an exact-size heap
// copy of it, so the walk can build the path in an array on its stack.
func (nw *Network) finish(path []int) []int {
	nw.lookups.Inc()
	nw.hops.Observe(int64(len(path) - 1))
	return append(make([]int, 0, len(path)), path...)
}

// Forget zeroes the departed server's counter (handles are never reused,
// so nothing counts into it again).
func (nw *Network) Forget(h partition.Handle) {
	if c := nw.load.counter(h); c != nil {
		c.Store(0)
	}
}

// ResetLoad zeroes the congestion counters.
func (nw *Network) ResetLoad() {
	nw.load.each(func(_ partition.Handle, c *atomic.Int64) { c.Store(0) })
}

// MaxLoad returns the maximum per-server load.
func (nw *Network) MaxLoad() (top int64) {
	nw.load.each(func(_ partition.Handle, c *atomic.Int64) { top = max(top, c.Load()) })
	return top
}

// LoadOf returns the load of the server with stable handle h.
func (nw *Network) LoadOf(h partition.Handle) int64 {
	if c := nw.load.counter(h); c != nil {
		return c.Load()
	}
	return 0
}

// LoadMap materializes the nonzero per-server loads as a fresh map.
func (nw *Network) LoadMap() map[partition.Handle]int64 {
	out := make(map[partition.Handle]int64)
	nw.load.each(func(h partition.Handle, c *atomic.Int64) {
		if l := c.Load(); l != 0 {
			out[h] = l
		}
	})
	return out
}

// visit appends server v to the path if it differs from the current last
// element, and counts its load against the server's stable handle, as
// named by the lookup's snapshot.
func (nw *Network) visit(snap *partition.Snapshot, path []int, v int) []int {
	if len(path) > 0 && path[len(path)-1] == v {
		return path
	}
	nw.load.at(snap.HandleAt(v)).Add(1)
	return append(path, v)
}

// maxWalkSteps bounds walk lengths: enough steps for the walk distance to
// shrink below any segment (∆^steps >= 2^64), with slack.
func maxWalkSteps(delta uint64) uint {
	return uint(math.Ceil(64/math.Log2(float64(delta)))) + 2
}

// walkPoints is maxWalkSteps(2)+1, the most positions a walk of any ∆ >= 2
// holds: the walks' stack arrays are sized by it (past it, appends spill).
const walkPoints = 64 + 2 + 1

// clampSrc folds a caller-supplied source index into the snapshot's index
// range: under churn the caller may have picked the index against a
// different epoch, and any nearby server is an equally valid lookup
// origin.
func clampSrc(snap *partition.Snapshot, src int) int {
	if n := snap.N(); src >= n || src < 0 {
		return 0
	}
	return src
}

// snapNeighbor reports whether servers i and j (snapshot indices) are
// neighbours in the discrete DH graph over the snapshot's decomposition —
// the geometric restatement of dhgraph adjacency (out ∪ in ∪ ring edges):
// i and j are adjacent iff they are ring-adjacent or some forward image
// of one's segment intersects the other's segment (§2.1: two cells are
// connected iff they contain adjacent points of the continuous graph).
// It reads only the snapshot, so phase-I termination never touches the
// srv table a concurrent churn event is patching.
func (nw *Network) snapNeighbor(snap *partition.Snapshot, i, j int) bool {
	if i == j {
		return true
	}
	n := snap.N()
	if n <= 2 {
		return true
	}
	if (i+1)%n == j || (j+1)%n == i {
		return true // ring edge
	}
	return nw.coversImage(snap, i, j) || nw.coversImage(snap, j, i)
}

// coversImage reports whether server j's segment intersects any forward
// image of server i's segment — i.e. whether j ∈ out(i). The membership
// test mirrors Ring.CoverHandlesOfArc: j intersects an image arc iff j
// covers the arc's start, or j's own point lies strictly inside the arc.
func (nw *Network) coversImage(snap *partition.Snapshot, i, j int) bool {
	xj, si := snap.Point(j), snap.Segment(i)
	for k := uint64(0); k < nw.G.Delta; k++ {
		img := continuous.DeltaImage(si, nw.G.Delta, k)
		if img.Len == 0 { // full-circle image intersects everything
			return true
		}
		if j == snap.Cover(img.Start) {
			return true
		}
		if d := interval.CWDist(img.Start, xj); d > 0 && d < img.Len {
			return true
		}
	}
	return false
}

// FastPlan is step 1 of the Fast Lookup of §2.2.1 at a server owning seg:
// with z the middle of seg, it returns the minimal depth t at which the
// walk w(σ(z)_t, y) enters seg — chosen in advance, as the paper requires
// — and that walk's position. The lookup is then t backward steps from pos,
// the last of which lands within ∆^-t of y. The simulator and the live
// node both plan with it, so their hop sequences agree.
func FastPlan(seg interval.Segment, y interval.Point, delta uint64) (pos interval.Point, t uint) {
	z := seg.Mid()
	for maxT := maxWalkSteps(delta); ; t++ {
		pos = interval.DeltaWalkPrefix(z, y, delta, t)
		if t >= maxT || seg.Contains(pos) {
			return pos, t
		}
	}
}

// FastAdvance takes the backward steps of a planned walk that need no
// message: it steps pos backward while steps remain and the next position
// is still inside seg. With steps left over on return, the next backward
// step leaves seg and is a network hop.
func FastAdvance(seg interval.Segment, pos interval.Point, steps uint, delta uint64) (interval.Point, uint) {
	for steps > 0 {
		next := interval.DeltaBack(pos, delta)
		if !seg.Contains(next) {
			break
		}
		pos, steps = next, steps-1
	}
	return pos, steps
}

// FastLookup routes a lookup from server src to the server covering y using
// the Fast Lookup of §2.2.1 and returns the path of distinct servers
// visited (src first).
func (nw *Network) FastLookup(src int, y interval.Point) []int {
	snap := nw.G.Ring.Snapshot()
	delta := nw.G.Delta
	src = clampSrc(snap, src)
	seg := snap.Segment(src)
	var buf [walkPoints + 1]int // src, at most one hop per step, the cover of y
	path := nw.visit(snap, buf[:0], src)
	pos, steps := FastPlan(seg, y, delta)
	for {
		if pos, steps = FastAdvance(seg, pos, steps, delta); steps == 0 {
			break
		}
		pos, steps = interval.DeltaBack(pos, delta), steps-1
		cur := snap.Cover(pos)
		path = nw.visit(snap, path, cur)
		seg = snap.Segment(cur)
	}
	// The walk endpoint equals y truncated to its top bits; deliver to the
	// exact cover of y (at most one extra ring hop, guarding the fixed-point
	// truncation).
	return nw.finish(nw.visit(snap, path, snap.Cover(y)))
}

// DHLookup routes a lookup from server src to the server covering y using
// the two-phase Distance Halving Lookup of §2.2.2, consuming random digits
// from rng. It returns the path of distinct servers visited.
func (nw *Network) DHLookup(src int, y interval.Point, rng *rand.Rand) []int {
	path, _ := nw.dhWalk(src, y, rng, nil, nil)
	return path
}

// Trace records the phase structure of a DH lookup, used by the caching
// protocol (§3) which couples to the phase-II walk.
type Trace struct {
	// Digits holds the random digits τ_1, τ_2, ... consumed in phase I.
	Digits []uint64
	// PhaseIEnd is the index in the path where phase II begins.
	PhaseIEnd int
	// TargetWalk holds the phase-II positions q_T, ..., q_1, q_0 = y in the
	// order they are visited when descending back to the target.
	TargetWalk []interval.Point
}

// DHLookupTrace is DHLookup returning the full trace.
func (nw *Network) DHLookupTrace(src int, y interval.Point, rng *rand.Rand) ([]int, Trace) {
	var tr Trace
	path, _ := nw.dhWalk(src, y, rng, &tr, nil)
	return path, tr
}

// DHLookupStoppable runs a Distance Halving lookup whose phase II can be
// intercepted: after the message reaches the server covering the phase-II
// position q_j (tree depth j), stop is consulted with the phase-I digit
// string and j; returning true ends the lookup there. This is the hook the
// dynamic caching protocol of §3 uses — a request for a hot item is served
// by the deepest active cache-tree node on its (random) branch instead of
// travelling all the way to the item's root.
//
// It returns the truncated path and the depth at which the lookup stopped
// (0 when it reached the target, i.e. was never intercepted).
func (nw *Network) DHLookupStoppable(src int, y interval.Point, rng *rand.Rand,
	stop func(digits []uint64, depth int, q interval.Point) bool) ([]int, int) {
	return nw.dhWalk(src, y, rng, nil, stop)
}

// dhWalk is the one Distance Halving walk behind DHLookup, DHLookupTrace
// and DHLookupStoppable. A non-nil tr receives the trace; a non-nil stop
// is consulted after every phase-II hop and ends the walk at the returned
// depth. The digit string is kept only when one of them will read it; the
// draws from rng, and so the path, are the same either way. The phase-II
// stack and the path live in arrays on the stack; only the returned copy
// of the path is allocated.
func (nw *Network) dhWalk(src int, y interval.Point, rng *rand.Rand, tr *Trace,
	stop func(digits []uint64, depth int, q interval.Point) bool) ([]int, int) {

	snap := nw.G.Ring.Snapshot()
	delta := nw.G.Delta
	keepDigits := tr != nil || stop != nil

	src = clampSrc(snap, src)
	p := snap.Point(src) // the paper's header carries x_i
	q := y
	var stackBuf [walkPoints]interval.Point
	stack := append(stackBuf[:0], y) // q_0 .. q_t
	var digits []uint64
	cur := src
	var pathBuf [2*walkPoints + 1]int // src, then at most walkPoints per phase
	path := nw.visit(snap, pathBuf[:0], src)
	depth := 0

	maxT := maxWalkSteps(delta)
	for t := uint(0); ; t++ {
		cq := snap.Cover(q)
		if cq == cur || nw.snapNeighbor(snap, cur, cq) {
			// Phase I ends: move to the server covering w(τ_t, y).
			path = nw.visit(snap, path, cq)
			cur = cq
			break
		}
		if t >= maxT {
			// Cannot happen on a well-formed ring; guard against spins.
			break
		}
		d := rng.Uint64N(delta)
		if keepDigits {
			digits = append(digits, d)
		}
		p = interval.DeltaStep(p, delta, d)
		q = interval.DeltaStep(q, delta, d)
		stack = append(stack, q)
		next := snap.Cover(p)
		path = nw.visit(snap, path, next)
		cur = next
	}
	if tr != nil {
		tr.Digits = digits
		tr.PhaseIEnd = len(path)
	}

	// Phase II: retrace the target walk backwards, popping exact positions
	// (each hop is a backward edge of the continuous graph).
	for j := len(stack) - 1; j >= 0; j-- {
		if tr != nil {
			tr.TargetWalk = append(tr.TargetWalk, stack[j])
		}
		path = nw.visit(snap, path, snap.Cover(stack[j]))
		if stop != nil && stop(digits, j, stack[j]) {
			depth = j
			break
		}
	}
	return nw.finish(path), depth
}

// RandomLookups performs count lookups from uniform random sources to
// uniform random target points, using fast (deterministic) or DH
// (randomized) routing, and returns the paths' length statistics.
func (nw *Network) RandomLookups(count int, useFast bool, rng *rand.Rand) (maxLen int, sumLen int) {
	n := nw.G.N()
	for i := 0; i < count; i++ {
		src := rng.IntN(n)
		y := interval.Point(rng.Uint64())
		var path []int
		if useFast {
			path = nw.FastLookup(src, y)
		} else {
			path = nw.DHLookup(src, y, rng)
		}
		l := len(path) - 1
		sumLen += l
		if l > maxLen {
			maxLen = l
		}
	}
	return maxLen, sumLen
}

// PermutationRoute has every server i initiate one lookup for the midpoint
// of s(η(i)) (Theorem 2.10's workload) and returns the maximum per-server
// load. useFast selects Fast Lookup instead of DH Lookup (the ablation:
// deterministic routing has no worst-case load guarantee).
func (nw *Network) PermutationRoute(perm []int, useFast bool, rng *rand.Rand) int64 {
	nw.ResetLoad()
	ring := nw.G.Ring
	for i, pi := range perm {
		y := ring.Segment(pi).Mid()
		if useFast {
			nw.FastLookup(i, y)
		} else {
			nw.DHLookup(i, y, rng)
		}
	}
	return nw.MaxLoad()
}
