package condisc

// This file makes churn concurrent for disjoint neighbourhoods. The
// paper's locality theorem (§2.1) bounds the blast radius of a Join or
// Leave to the O(ρ·∆) servers whose segments, forward images, or
// preimages intersect the changed segment — so churn events whose
// neighbourhoods are disjoint are independent, and a batch of them can
// run in parallel without any global lock.
//
// Execution is two-phase, drained in waves:
//
//	admit (serial)   each event, in batch order: compute the arcs it may
//	                 touch (partition.Ring.LeaseSpan) and try to acquire
//	                 an arc lease over them. Conflicting events are
//	                 deferred to the next wave. Admitted events perform
//	                 their O(log n) ring mutation, reserve their stores,
//	                 and drop the departed server's counters — the cheap,
//	                 structurally-shared work.
//	apply (parallel) every admitted event patches the routing graph,
//	                 streams its items through the bounded-memory handoff
//	                 path, and invalidates its cache region — the
//	                 expensive work — concurrently with the other events
//	                 of the wave. Disjoint leases guarantee the touched
//	                 server records are disjoint.
//	retire (serial)  departed graph records are dropped, leases released,
//	                 and the next wave admits the deferred events against
//	                 the committed state.
//
// Because admission happens in batch order and disjoint applies commute,
// the final ring, graph, load counters, cache state, and item placement
// are byte-identical to applying the same events serially — the property
// internal/churntest enforces differentially under seeded interleavings.

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"condisc/internal/dhgraph"
	"condisc/internal/handoff"
	"condisc/internal/interval"
	"condisc/internal/journal"
	"condisc/internal/partition"
	"condisc/internal/store"
	"condisc/internal/telemetry"
)

// batchEvent is one admitted churn event awaiting its apply phase.
type batchEvent struct {
	join    bool
	id      ServerID
	ipatch  *dhgraph.InsertPatch
	rpatch  *dhgraph.RemovePatch
	src     store.Store      // join: predecessor's store; leave: the leaver's
	dst     store.Store      // join: the new server's store; leave: predecessor's
	moveSeg interval.Segment // the range handed off
	invSeg  interval.Segment // cache region to invalidate
	lease   *partition.Lease
}

// pendingJoin is a join not yet admitted (it may be deferred by waves).
type pendingJoin struct {
	p      Point
	redraw bool // redraw a Single Choice point if p is already taken
	slot   int  // index in the caller's result slice
}

// pendingLeave is a leave not yet admitted.
type pendingLeave struct{ id ServerID }

// JoinBatch adds k servers, admitting all events whose neighbourhoods are
// disjoint concurrently and draining conflicting ones in waves. The IDs
// are drawn serially with the Multiple Choice rule of §4 against the
// decomposition as of admission time (concurrent joiners sample
// simultaneously; for k = 1 the draw sequence is identical to Join). It
// returns the new servers' stable identifiers in event order.
func (d *DHT) JoinBatch(k int) []ServerID {
	d.churnMu.Lock()
	defer d.churnMu.Unlock()
	joins := make([]pendingJoin, k)
	for i, p := range d.batchChoicePoints(k) {
		joins[i] = pendingJoin{p: p, redraw: true, slot: i}
	}
	return d.runJoins(joins, k)
}

// batchChoicePoints draws k Multiple Choice IDs (§4, t = 2) against the
// current decomposition. The RNG draws stay serial (deterministic, and
// for k = 1 the draw sequence is bit-identical to
// partition.MultipleChoice), but the Θ(k·log n) segment probes are pure
// ring reads and fan out across CPUs — for a wide batch the probing is
// most of the admission phase's serial residue otherwise.
func (d *DHT) batchChoicePoints(k int) []Point {
	probes := partition.ChoiceProbes(d.ring.N(), 2)
	zs := make([]Point, k*probes)
	for i := range zs {
		zs[i] = Point(d.rng.Uint64())
	}
	segs := make([]interval.Segment, len(zs))
	probe := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			segs[i] = d.ring.SegmentOf(zs[i])
		}
	}
	if workers := runtime.GOMAXPROCS(0); workers > 1 && k > 1 && len(zs) >= 2*workers {
		var wg sync.WaitGroup
		chunk := (len(zs) + workers - 1) / workers
		for lo := 0; lo < len(zs); lo += chunk {
			hi := min(lo+chunk, len(zs))
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				probe(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	} else {
		probe(0, len(zs))
	}
	out := make([]Point, k)
	for e := 0; e < k; e++ {
		out[e] = partition.ChooseBest(segs[e*probes : (e+1)*probes])
	}
	return out
}

// JoinAtBatch adds one server per explicit point, concurrently for
// disjoint neighbourhoods. A point already present yields ServerID 0 in
// its slot (no redraw) — the batched form of JoinAt, and the entry point
// the churntest harness replays traces through.
func (d *DHT) JoinAtBatch(points []Point) []ServerID {
	d.churnMu.Lock()
	defer d.churnMu.Unlock()
	joins := make([]pendingJoin, len(points))
	for i, p := range points {
		joins[i] = pendingJoin{p: p, slot: i}
	}
	return d.runJoins(joins, len(points))
}

// JoinAt adds a server owning [p, succ) — Join with an explicit point
// instead of a Multiple Choice draw. ok is false (and the DHT unchanged)
// if a server with that exact point already exists.
func (d *DHT) JoinAt(p Point) (ServerID, bool) {
	ids := d.JoinAtBatch([]Point{p})
	return ids[0], ids[0] != 0
}

// LeaveBatch removes the named servers, admitting disjoint events
// concurrently and draining conflicts in waves (two adjacent leavers, or
// a leaver and its absorbing predecessor, serialize automatically). It
// validates the whole batch first: duplicate or unknown ids, or a batch
// that would shrink the network below 2 servers, fail the call before any
// event runs.
func (d *DHT) LeaveBatch(ids []ServerID) error {
	d.churnMu.Lock()
	defer d.churnMu.Unlock()
	seen := make(map[ServerID]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("condisc: duplicate id %d in leave batch", id)
		}
		seen[id] = struct{}{}
		if _, ok := d.ring.IndexOfHandle(id); !ok {
			return fmt.Errorf("condisc: no server with id %d", id)
		}
	}
	if d.ring.N()-len(ids) < 2 {
		return fmt.Errorf("condisc: cannot shrink below 2 servers")
	}
	leaves := make([]pendingLeave, len(ids))
	for i, id := range ids {
		leaves[i] = pendingLeave{id: id}
	}
	d.runLeaves(leaves)
	return nil
}

// Wave composition: a wave is the maximal conflict-free PREFIX of the
// remaining events — the first event whose lease conflicts with an
// already-admitted one defers, and so does everything after it. Admitting
// any later event past a deferred one would be wrong twice over: a later
// event conflicting with the deferred one would execute out of trace
// order, and even a disjoint one would take its ring handle (and RNG
// draws, and store number) out of trace order, breaking the byte-for-byte
// equivalence with serial application that churntest enforces.

// runJoins drains the pending joins in prefix waves and returns the ids.
func (d *DHT) runJoins(joins []pendingJoin, k int) []ServerID {
	out := make([]ServerID, k)
	for len(joins) > 0 {
		var wave []*batchEvent
		next := len(joins)
		for i := range joins {
			ev, def := d.admitJoin(&joins[i])
			if def {
				next = i
				break
			}
			out[joins[i].slot] = ev.id // 0 when the point was already present
			if ev.src != nil {
				wave = append(wave, ev)
			}
		}
		d.runWave(wave)
		joins = joins[next:]
	}
	d.settleCache()
	return out
}

// runLeaves drains the pending leaves in prefix waves.
func (d *DHT) runLeaves(leaves []pendingLeave) {
	for len(leaves) > 0 {
		var wave []*batchEvent
		next := len(leaves)
		for i := range leaves {
			ev, def := d.admitLeave(leaves[i].id)
			if def {
				next = i
				break
			}
			wave = append(wave, ev)
		}
		d.runWave(wave)
		leaves = leaves[next:]
	}
	d.settleCache()
}

// admitJoin is the serial phase of one join. def reports the event
// conflicts with an already-admitted event of this wave and must wait for
// the next one. On a collision with an existing point the event either
// redraws (JoinBatch semantics: a fresh Single Choice point, exactly the
// serial Join retry) or resolves to ServerID 0 (JoinAtBatch semantics).
func (d *DHT) admitJoin(pj *pendingJoin) (*batchEvent, bool) {
	for {
		spans := d.ring.LeaseSpan(d.ring.SegmentOf(pj.p), d.opts.Delta)
		lease, ok := d.leases.TryAcquire(spans...)
		if !ok {
			return nil, true
		}
		ipatch, idx, inserted := d.net.G.InsertAdmit(pj.p)
		if !inserted {
			d.leases.Release(lease)
			if !pj.redraw {
				return &batchEvent{}, false // slot stays 0
			}
			pj.p = partition.SingleChoice(d.rng)
			continue
		}
		id := d.ring.HandleAt(idx)
		seg := d.ring.Segment(idx)
		src := d.stores[d.ring.HandleAt(d.ring.Predecessor(idx))]
		dst := d.newStore()
		d.storesMu.Lock()
		d.stores[id] = dst
		d.storesMu.Unlock()
		// Flight recorder: the serial admit point. The stamp is the
		// pre-wave epoch — the decomposition this admission was decided
		// against.
		d.jrn.Record(journal.KindChurnAdmit, d.ring.Epoch(), d.ring.Epoch(),
			uint64(id), uint64(seg.Start), 1)
		return &batchEvent{
			join: true, id: id, ipatch: ipatch,
			src: src, dst: dst, moveSeg: seg, invSeg: seg, lease: lease,
		}, false
	}
}

// admitLeave is the serial phase of one leave; the id was validated by
// LeaveBatch.
func (d *DHT) admitLeave(id ServerID) (*batchEvent, bool) {
	idx, _ := d.ring.IndexOfHandle(id)
	seg := d.ring.Segment(idx)
	predIdx := d.ring.Predecessor(idx)
	predSeg := d.ring.Segment(predIdx)
	changed := interval.Segment{Start: predSeg.Start, Len: predSeg.Len + seg.Len}
	if predSeg.Len == 0 || seg.Len == 0 || changed.Len < predSeg.Len {
		changed = interval.FullCircle
	}
	spans := d.ring.LeaseSpan(changed, d.opts.Delta)
	lease, ok := d.leases.TryAcquire(spans...)
	if !ok {
		return nil, true
	}
	predH := d.ring.HandleAt(predIdx)
	rpatch := d.net.G.RemoveAdmit(idx)
	d.net.Forget(id)
	// The leaver's store stays in the map (and intact) until cleanupWave:
	// readers resolving against the pre-wave epoch must keep finding the
	// leaver's items at the leaver until the post-wave epoch is published.
	src := d.stores[id]
	ev := &batchEvent{
		id: id, rpatch: rpatch,
		src: src, dst: d.stores[predH],
		moveSeg: interval.FullCircle, invSeg: seg, lease: lease,
	}
	if d.cache != nil {
		d.cache.Forget(id)
	}
	d.jrn.Record(journal.KindChurnAdmit, d.ring.Epoch(), d.ring.Epoch(),
		uint64(id), uint64(seg.Start), 0)
	return ev, false
}

// runWave applies every admitted event — graph patch, item handoff, cache
// invalidation — then retires, publishes the post-wave epoch, cleans up
// the source-side copies, and releases the leases. A single-event wave
// (or one whose graph went through the tiny-ring rebuild) applies inline;
// larger waves run one goroutine per event.
//
// The sequencing is the copy → publish → delete protocol the wait-free
// read path depends on:
//
//  1. setMoving fences Put against every range changing hands this wave
//     (readers keep being served from the pre-wave epoch's owners);
//  2. the applies COPY items to their new owners (handoff.Copy — sources
//     stay intact, so both epochs' owners hold the items);
//  3. ring.Publish flips readers to the post-wave decomposition — the
//     single sanctioned publish point of the batch path;
//  4. cleanupWave deletes the source-side copies and drops departed
//     stores, which only the retired epoch could ever have resolved to.
func (d *DHT) runWave(wave []*batchEvent) {
	if len(wave) == 0 {
		return
	}
	segs := make([]interval.Segment, len(wave))
	for i, ev := range wave {
		segs[i] = ev.invSeg
	}
	sw := telemetry.StartTimer() // telemetry owns the clock; detpath stays clean
	d.setMoving(segs)
	if len(wave) == 1 {
		d.applyEvent(wave[0], 0)
	} else {
		var wg sync.WaitGroup
		for i, ev := range wave {
			wg.Add(1)
			go func(i int, ev *batchEvent) {
				defer wg.Done()
				d.applyEvent(ev, i)
			}(i, ev)
		}
		wg.Wait()
	}
	for _, ev := range wave {
		if ev.rpatch != nil {
			d.net.G.RemoveRetire(ev.rpatch)
			d.jrn.Record(journal.KindChurnRetire, d.ring.Epoch(), d.ring.Epoch(),
				uint64(ev.id), 0, 0)
		}
	}
	d.ring.Publish()
	// The sanctioned publish point: stamp the new epoch (SetStamped feeds
	// the snapshot-age collector) and account the wave. Observers only —
	// nothing downstream reads these values back.
	d.met.epoch.SetStamped(int64(d.ring.Snapshot().Epoch()))
	d.met.waves.Inc()
	d.cleanupWave(wave)
	d.clearMoving()
	d.met.waveNanos.Observe(sw.Nanos())
	for _, ev := range wave {
		if ev.lease != nil {
			d.leases.Release(ev.lease)
		}
	}
}

// cleanupWave is the delete half of copy → publish → delete: with the
// post-wave epoch published, no reader can resolve a moved range to its
// old owner any more, so the source-side copies go away — a join's source
// drops the handed-off range, a leave's source is destroyed outright and
// its map entry removed.
func (d *DHT) cleanupWave(wave []*batchEvent) {
	for _, ev := range wave {
		if ev.join {
			if err := ev.src.DeleteRange(ev.moveSeg); err != nil {
				panic(fmt.Sprintf("condisc: post-publish delete: %v", err))
			}
			continue
		}
		if err := store.Destroy(ev.src); err != nil {
			panic(fmt.Sprintf("condisc: store destroy: %v", err))
		}
		d.storesMu.Lock()
		delete(d.stores, ev.id)
		d.storesMu.Unlock()
	}
}

// applyEvent is the parallel phase of one event. All state it writes lies
// inside the event's lease span (graph records), is private to the event
// (its stores), or is internally synchronized (the cache, the shared
// degree/edge accounting).
func (d *DHT) applyEvent(ev *batchEvent, i int) {
	if ev.src == nil {
		return // failed JoinAt slot: nothing admitted
	}
	hook := d.schedHook
	if hook != nil {
		hook(i, "graph")
	}
	switch {
	case ev.ipatch != nil:
		d.net.G.InsertApply(ev.ipatch)
	case ev.rpatch != nil:
		d.net.G.RemoveApply(ev.rpatch)
	}
	if hook != nil {
		hook(i, "items")
	}
	// Copy, not Move: the source keeps its items until cleanupWave runs
	// after the post-wave epoch is published, so pre-wave readers stay
	// servable throughout the handoff.
	if _, err := handoff.Copy(ev.src, ev.dst, ev.moveSeg); err != nil {
		panic(fmt.Sprintf("condisc: batch handoff: %v", err))
	}
	if hook != nil {
		hook(i, "cache")
	}
	if d.cache != nil {
		d.cache.InvalidateRegion(ev.invSeg)
	}
	if hook != nil {
		hook(i, "done")
	}
	// Flight recorder: this event's apply finished (graph patched, items
	// copied). Epoch is still the pre-wave one — Publish has not run.
	isJoin := uint64(0)
	if ev.join {
		isJoin = 1
	}
	d.jrn.Record(journal.KindChurnApply, d.ring.Epoch(), d.ring.Epoch(),
		uint64(ev.id), 0, isJoin)
}

// settleCache re-derives the caching threshold for the post-batch size
// (the serial path does this per event; only the final value is
// observable either way).
func (d *DHT) settleCache() {
	if d.cache != nil {
		d.cache.C = d.autoThreshold()
	}
}

// SetChurnSchedHook installs a scheduling hook for deterministic
// concurrency testing: during a batch's parallel phase, each event's
// worker calls hook(event, step) at the boundaries of its graph, item,
// and cache sub-steps ("graph", "items", "cache", "done"). The churntest
// harness uses it to perturb goroutine interleavings from a seeded
// schedule; production code leaves it nil. The hook is called from
// multiple goroutines concurrently and must synchronize itself.
func (d *DHT) SetChurnSchedHook(hook func(event int, step string)) {
	d.schedHook = hook
}

// WriteState writes a canonical serialization of the DHT's complete
// logical state: the decomposition (points and stable handles in ring
// order), every server's graph edge lists, the Theorem 2.1/2.2
// accounting, the load counters, the caching state, and every stored
// item. Two DHTs that evolved through equivalent histories — e.g. the
// same churn trace applied serially and in concurrent batches — produce
// byte-identical output; internal/churntest differentially enforces
// exactly that.
func (d *DHT) WriteState(w io.Writer) error {
	n := d.ring.N()
	fmt.Fprintf(w, "dht n=%d edges=%d maxout=%d maxin=%d\n",
		n, d.net.G.EdgeCountNoRing(), d.net.G.MaxOutNoRing(), d.net.G.MaxInNoRing())
	for i := 0; i < n; i++ {
		h := d.ring.HandleAt(i)
		fmt.Fprintf(w, "server i=%d p=%d h=%d\n", i, uint64(d.ring.Point(i)), h)
		fmt.Fprintf(w, "  out=%v\n  in=%v\n  adj=%v\n", d.net.G.OutH(h), d.net.G.InH(h), d.net.G.AdjH(h))
		fmt.Fprintf(w, "  load=%d\n", d.net.LoadOf(h))
		s, ok := d.storeOf(h)
		if !ok {
			return fmt.Errorf("condisc: server %d has no store", h)
		}
		if err := store.Scan(s, interval.FullCircle, func(items []store.Item) error {
			for _, it := range items {
				fmt.Fprintf(w, "  item p=%d k=%q v=%q\n", uint64(it.Point), it.Key, it.Value)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	d.storesMu.RLock()
	nStores := len(d.stores)
	d.storesMu.RUnlock()
	if nStores != n {
		return fmt.Errorf("condisc: %d stores for %d servers", nStores, n)
	}
	if d.cache != nil {
		return d.cache.DumpState(w)
	}
	return nil
}
