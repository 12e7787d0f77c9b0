package condisc

// This file is the simulator's churn path. Every Join and Leave runs
// serially under churnMu; the paper's locality theorem (§2.1, Theorem 2.2)
// is what keeps each event cheap — it touches only the O(ρ·∆) servers
// around the changed segment. Readers never take churnMu: they resolve
// owners against the ring's published epoch snapshots, and one event is
// one epoch.

import (
	"fmt"
	"io"

	"condisc/internal/handoff"
	"condisc/internal/interval"
	"condisc/internal/journal"
	"condisc/internal/partition"
	"condisc/internal/store"
	"condisc/internal/telemetry"
)

// Join adds a server with a Multiple Choice ID (§4), patching the routing
// graph locally and migrating only the items of the split segment (§2.1
// Join step 3). It returns the new server's stable identifier.
//
// Because every layer keys its state by ServerID, the join is a pure
// range handoff: the graph patches the O(ρ·∆) servers around the split,
// the load and supply counters are untouched (the newcomer simply has no
// entries yet), and the item split moves the new segment's items out of
// the predecessor's ordered store in O(log S + moved) — no scan of the
// items that stay behind, no other server's state read or written.
func (d *DHT) Join() ServerID {
	d.churnMu.Lock()
	defer d.churnMu.Unlock()
	p := partition.MultipleChoice(d.ring, d.rng, 2)
	for {
		if id, ok := d.join(p); ok {
			d.settleCache()
			return id
		}
		p = partition.SingleChoice(d.rng) // the point is taken: redraw
	}
}

// JoinBatch adds k servers, one Join after another, and returns their
// stable identifiers in join order.
func (d *DHT) JoinBatch(k int) []ServerID {
	ids := make([]ServerID, k)
	for i := range ids {
		ids[i] = d.Join()
	}
	return ids
}

// JoinAt adds a server owning [p, succ) — Join with an explicit point
// instead of a Multiple Choice draw. ok is false (and the DHT unchanged)
// if a server with that exact point already exists.
func (d *DHT) JoinAt(p Point) (ServerID, bool) {
	d.churnMu.Lock()
	defer d.churnMu.Unlock()
	id, ok := d.join(p)
	if ok {
		d.settleCache()
	}
	return id, ok
}

// Leave removes the server named by id; its segment, items and routing
// edges are absorbed by the ring predecessor (§2.1), touching only that
// neighbourhood. The id stays valid across unrelated churn, so the caller
// can never remove the wrong server.
func (d *DHT) Leave(id ServerID) error {
	return d.LeaveBatch([]ServerID{id})
}

// LeaveBatch removes the named servers one after another. It validates
// the whole batch first: duplicate or unknown ids, or a batch that would
// shrink the network below 2 servers, fail the call before any server
// leaves.
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
	for _, id := range ids {
		d.leave(id)
	}
	d.settleCache()
	return nil
}

// join inserts a server at p and hands it the items of its new segment;
// ok is false if p is already a server point. The caller holds churnMu.
func (d *DHT) join(p Point) (ServerID, bool) {
	idx, ok := d.net.G.Insert(p)
	if !ok {
		return 0, false
	}
	id := d.ring.HandleAt(idx)
	seg := d.ring.Segment(idx)
	d.stores.grow(id)
	d.jrn.Record(journal.KindChurn, d.ring.Epoch(), d.ring.Epoch(),
		uint64(id), uint64(seg.Start), 1)
	d.handOver(d.ring.HandleAt(d.ring.Predecessor(idx)), id, seg, seg, true)
	return id, true
}

// leave removes the validated server id and hands its items to its
// predecessor. The caller holds churnMu.
func (d *DHT) leave(id ServerID) {
	idx, _ := d.ring.IndexOfHandle(id)
	seg := d.ring.Segment(idx)
	predH := d.ring.HandleAt(d.ring.Predecessor(idx))
	d.net.G.Remove(idx)
	d.net.Forget(id)
	if d.cache != nil {
		d.cache.Forget(id)
	}
	d.jrn.Record(journal.KindChurn, d.ring.Epoch(), d.ring.Epoch(),
		uint64(id), uint64(seg.Start), 0)
	// The leaver's store stays in the table (and intact) until after the
	// publish: readers resolving against the previous epoch must keep
	// finding its items there.
	d.handOver(id, predH, interval.FullCircle, seg, false)
}

// handOver moves one churn event's items, the range move of server srcH,
// to server dstH and publishes the event, with the ring and graph already
// mutated (unpublished). The order is the copy → publish → delete
// protocol the wait-free read path depends on:
//
//  1. setMoving fences Put against the range changing owner (readers
//     keep being served from the previous epoch's owners);
//  2. handoff.Copy copies the items to their new owner — the source stays
//     intact, so both epochs' owners hold them. A source with no item in
//     the range copies nothing, and creates no store at dstH;
//  3. the cache region of the changed segment is cleared;
//  4. ring.Publish flips readers to the new decomposition;
//  5. the source-side copies go away — a join's source drops the
//     handed-off range, a leaver's slot is tombstoned and its store
//     destroyed — which only the retired epoch could ever have resolved
//     to. The source's store is looked up again here: a Put that raced
//     the copy may have created it since;
//  6. clearMoving lifts the fence.
func (d *DHT) handOver(srcH, dstH ServerID, move, changed interval.Segment, join bool) {
	sw := telemetry.StartTimer() // telemetry owns the clock; detpath stays clean
	d.setMoving(changed)
	if src := d.stores.get(srcH); src != nil && holds(src, move) {
		if _, err := handoff.Copy(src, d.stores.open(dstH, d.newStore), move); err != nil {
			panic(fmt.Sprintf("condisc: churn handoff: %v", err))
		}
	}
	if d.cache != nil {
		d.cache.InvalidateRegion(changed)
	}
	d.ring.Publish()
	// Stamp the new epoch (SetStamped feeds the snapshot-age collector) and
	// account the event. Observers only — nothing reads these values back.
	d.met.epoch.SetStamped(int64(d.ring.Snapshot().Epoch()))
	d.met.waves.Inc()
	if join {
		if src := d.stores.get(srcH); src != nil {
			if err := src.DeleteRange(move); err != nil {
				panic(fmt.Sprintf("condisc: post-publish delete: %v", err))
			}
		}
	} else if src := d.stores.retire(srcH); src != nil {
		if err := store.Destroy(src); err != nil {
			panic(fmt.Sprintf("condisc: store destroy: %v", err))
		}
	}
	d.clearMoving()
	d.met.waveNanos.Observe(sw.Nanos())
}

// holds reports whether s has an item in seg.
func holds(s store.Store, seg interval.Segment) bool {
	cur := s.Cursor(seg)
	defer cur.Close()
	items, err := cur.Next(1)
	return err != nil || len(items) > 0 // an error surfaces in the copy
}

// settleCache re-derives the caching threshold for the current size.
func (d *DHT) settleCache() {
	if d.cache != nil {
		d.cache.C = d.autoThreshold()
	}
}

// WriteState writes a canonical serialization of the DHT's complete
// logical state: the decomposition (points and stable handles in ring
// order), every server's graph edge lists, the Theorem 2.1/2.2
// accounting, the load counters, the caching state, and every stored
// item. Two DHTs that evolved through equivalent histories produce
// byte-identical output; internal/churntest pins digests of it.
func (d *DHT) WriteState(w io.Writer) error {
	n := d.ring.N()
	fmt.Fprintf(w, "dht n=%d edges=%d maxout=%d maxin=%d\n",
		n, d.net.G.EdgeCountNoRing(), d.net.G.MaxOutNoRing(), d.net.G.MaxInNoRing())
	for i := 0; i < n; i++ {
		h := d.ring.HandleAt(i)
		fmt.Fprintf(w, "server i=%d p=%d h=%d\n", i, uint64(d.ring.Point(i)), h)
		fmt.Fprintf(w, "  out=%v\n  in=%v\n  adj=%v\n", d.net.G.OutH(h), d.net.G.InH(h), d.net.G.AdjH(h))
		fmt.Fprintf(w, "  load=%d\n", d.net.LoadOf(h))
		s := d.stores.get(h)
		if s == nil {
			continue // no item yet
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
	var stray error
	d.stores.each(func(h ServerID, _ store.Store) {
		if _, ok := d.ring.IndexOfHandle(h); !ok && stray == nil {
			stray = fmt.Errorf("condisc: departed server %d still has a store", h)
		}
	})
	if stray != nil {
		return stray
	}
	if d.cache != nil {
		return d.cache.DumpState(w)
	}
	return nil
}
