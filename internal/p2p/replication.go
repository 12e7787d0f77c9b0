package p2p

// This file is the crash-fault-tolerance plane: k-successor replication
// (internal/replicate), the failure detector that declares a silent
// successor dead, the sessionless crash absorb that heals the ring
// around it, and the repair loop that re-materializes the absorbed
// range from replicas and restores the replication factor after any
// membership change.
//
// Placement invariant: the owner of a key holds the authoritative copy
// in n.data; its K−1 ring successors hold replica payloads (full copies,
// see replicate.Payloads) in n.rdata, keyed by the same
// (point, key). The two stores never mix: handoffs move n.data only,
// and replica payloads are re-derived by repair instead of being handed
// off — a deliberately simple ownership story.
//
// Crash protocol (this node = the dead node's ring predecessor):
//
//	Stabilize probe fails ×fdThreshold       (failure detection)
//	  → crashAbsorb: end/succ := succ's succ (ring heals, no session)
//	    journal KindCrashAbsorb, segment queued for repair
//	  → next Stabilize: successor chain refreshed past the dead node
//	  → runRepairs: pull the absorbed range's replica payloads from the
//	    new successors (opReplStream), reconstruct, PutIfAbsent into
//	    n.data (never clobbering a write that landed after the absorb),
//	    then re-replicate the owned range to the current chain.
//
// In the window between death and repair, reads are still served: a Get
// that hits the dead node returns Unreachable, and any node on the
// route falls back to querying its successor chain's replica payloads
// directly (replicaFallback).

import (
	"fmt"
	"net"
	"slices"
	"time"

	"condisc/internal/handoff"
	"condisc/internal/interval"
	"condisc/internal/journal"
	"condisc/internal/replicate"
	"condisc/internal/store"
)

// Repair pacing: reconstruction and re-replication run in batches of
// repairBatch items with repairPause between batches, so a repair after
// a large crash never monopolizes the node's CPU or the ring's RPC
// capacity.
const (
	repairBatch = 128
	repairPause = 2 * time.Millisecond
)

// rpc performs one control RPC with this node's deadline (the package-
// level call keeps the default, for callers without a node).
func (n *Node) rpc(addr string, req request) (response, error) {
	return n.wire.call(addr, &req)
}

// --- replica plane handlers ---

// handleReplPut stores one replica payload pushed by a predecessor. It
// is a direct (never routed) write into the replica store; the payload
// is opaque here — only replicate.Reconstruct interprets it.
func (n *Node) handleReplPut(req request) response {
	if n.rdata == nil {
		return response{Err: "replication disabled"}
	}
	if err := n.rdata.Put(interval.Point(req.Target), req.Key, req.Val); err != nil {
		return response{Err: "replica put: " + err.Error()}
	}
	return response{OK: true}
}

// handleReplGet reads one replica payload (replica-fallback Get, repair
// gather). A miss is a genuine NotFound — the caller tries other
// holders.
func (n *Node) handleReplGet(req request) response {
	if n.rdata == nil {
		return response{Err: "replication disabled", NotFound: true}
	}
	v, ok, err := n.rdata.Get(interval.Point(req.Target), req.Key)
	if err != nil {
		return response{Err: "replica get: " + err.Error()}
	}
	if !ok {
		return response{Err: "replica not held: " + req.Key, NotFound: true}
	}
	return response{OK: true, Val: v}
}

// handleReplStream serves a segment's replica payloads as a framed
// chunk stream on the raw connection — the sessionless cousin of
// handleStream, used by crash repair to gather an absorbed range in one
// pass instead of per-key RPCs. Nothing is fenced or deleted: the
// stream is a read.
func (n *Node) handleReplStream(req request, conn net.Conn) {
	w := &deadlineWriter{conn: conn, timeout: n.wire.timeout}
	if n.rdata == nil {
		w.Write(handoff.EncodeError("replication disabled"))
		return
	}
	seg := interval.Segment{Start: interval.Point(req.SegStart), Len: req.SegLen}
	cur := n.rdata.Cursor(seg)
	defer cur.Close()
	_, _, _ = handoff.Stream(w, cur, n.chunkBytes, func() {})
}

// pullReplStream collects a segment's replica payloads from one holder.
func (n *Node) pullReplStream(addr string, seg interval.Segment) ([]store.Item, error) {
	var items []store.Item
	_, err := n.readStream(addr, &request{Op: opReplStream, SegStart: uint64(seg.Start), SegLen: seg.Len},
		func(chunk []store.Item) error {
			items = append(items, chunk...)
			return nil
		})
	return items, err
}

// --- quorum writes ---

// replicatePut pushes an owned Put's replica payloads to the successor
// chain and enforces the write quorum. It runs OUTSIDE the node mutex
// (the local write already landed under it); on a missed quorum the
// response is rewritten into an error, so the writer knows the value is
// not yet crash-safe — the local copy stays, and repair converges the
// replicas once the successors are reachable again.
func (n *Node) replicatePut(req request, resp *response, succs []NodeInfo) {
	acked, failed := n.pushReplicas(req.Target, req.Key, req.Val, succs)
	acks := 1 + acked // the owner's own durable write counts
	if failed > 0 {
		// A transient push failure leaves the value under-replicated even
		// when the quorum was met; mark the owned range dirty so the next
		// stabilization's repair pass re-replicates it — without this the
		// value stays degraded until some unrelated membership change.
		n.transit((*ringCore).markDirty)
	}
	if need := n.repl.NeedAcks(); acks < need {
		n.met.replQuorumFail.Inc()
		*resp = response{Err: fmt.Sprintf("write quorum not reached (%d of %d acks)", acks, need),
			Hops: resp.Hops, Stale: resp.Stale}
	}
}

// pushReplicas sends the replica payloads of one item down the successor
// chain, payload i to successor i, and reports how many pushes were
// acknowledged and how many failed. Pushes are plain overwriting replica
// puts, so repeating them is idempotent.
func (n *Node) pushReplicas(point uint64, key string, val []byte, succs []NodeInfo) (acked, failed int) {
	payloads := replicate.Payloads(n.repl, val)
	for i, s := range succs {
		if i >= len(payloads) {
			break
		}
		if s.Addr == n.addr {
			continue
		}
		r := request{Op: opReplPut, Key: key, Val: payloads[i], Target: point}
		if _, err := n.rpc(s.Addr, r); err == nil {
			acked++
			n.met.replPuts.Inc()
		} else {
			failed++
		}
	}
	return acked, failed
}

// --- replica-fallback reads ---

// replicaFallback tries to serve a failed Get from replica payloads:
// its own replica store first (in small rings every node holds replicas
// for every other), then the cached successor chain via opReplGet. At
// the dead node's predecessor the chain is exactly the dead owner's
// replica-holder list, so a read that failed with Unreachable resolves
// here without waiting for repair. Returns base unchanged when the
// value cannot be reconstructed.
func (n *Node) replicaFallback(req request, base response) response {
	n.met.replFallbacks.Inc()
	if n.rdata != nil {
		if v, ok, _ := n.rdata.Get(interval.Point(req.Target), req.Key); ok {
			if val, ok := replicate.Reconstruct([][]byte{v}); ok {
				return n.fallbackHit(req, base, val)
			}
		}
	}
	for _, s := range n.core.Load().succs {
		if s.Addr == n.addr {
			continue
		}
		r, err := n.rpc(s.Addr, request{Op: opReplGet, Key: req.Key, Target: req.Target})
		if err != nil || !r.OK {
			continue
		}
		if val, ok := replicate.Reconstruct([][]byte{r.Val}); ok {
			return n.fallbackHit(req, base, val)
		}
	}
	return base
}

func (n *Node) fallbackHit(req request, base response, val []byte) response {
	n.met.replFallbackOK.Inc()
	n.tel.Emitf("repl.fallback", "served %q from replicas (owner unreachable or repairing)", req.Key)
	return response{OK: true, Val: val, Hops: base.Hops, Stale: base.Stale,
		ID: n.id, Addr: n.addr, RingVer: n.core.Load().ringVer}
}

// fallbackWanted reports whether a failed Get response should attempt
// the replica fallback: the owner (or some hop toward it) was
// unreachable, or this node owns the key's range but its crash repair
// has not finished re-materializing it.
func (n *Node) fallbackWanted(resp response) bool {
	return n.repl.Enabled() && (resp.Unreachable || resp.NotFound && len(n.core.Load().repairSegs) > 0)
}

// --- failure detection + crash absorb ---

// noteProbe feeds one successor probe's outcome to the failure detector;
// trip reports that the threshold was reached and the successor should be
// declared dead. Accrual is per-successor: a successful probe resets the
// count, and a miss against a successor that has since changed counts
// nothing.
func (n *Node) noteProbe(probed NodeInfo, err error) (trip bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, misses := n.core.Load(), n.fdMisses
	switch {
	case err == nil:
		n.fdMisses = 0
	case n.fdThreshold <= 0 || c.succ.ID != probed.ID || c.succ.Addr != probed.Addr:
		return false
	case c.succ.Addr == n.addr:
		return false // singleton ring: nothing to detect
	default:
		n.fdMisses++
	}
	if n.fdMisses != misses {
		n.met.fdSuspicion.Set(int64(n.fdMisses))
	}
	return n.fdMisses > misses && n.fdMisses >= n.fdThreshold && c.busy() == nil
}

// crashAbsorb declares the successor dead and absorbs its segment
// WITHOUT a handoff session — there is no one left to stream from. The
// ring pointer extension is the same single sanctioned mutation a leave
// absorption publishes (setEndSucc), but the absorbed range's items
// exist only as replica payloads on the new successor chain until
// runRepairs re-materializes them; the segment is queued for exactly
// that.
func (n *Node) crashAbsorb(dead NodeInfo) error {
	n.mu.Lock()
	prev := n.core.Load()
	next, err := prev.crashAbsorb(dead, n.repl.Enabled())
	if err == errChainUnknown {
		// Decline; the detector stays tripped and the absorb retries once
		// a later probe or patch reveals a live next hop.
		n.mu.Unlock()
		n.tel.Emitf("crash.absorb", "successor %s suspected dead but its successor is unknown; declining absorb until the chain resolves", dead.Addr)
		return nil
	}
	misses := n.fdMisses
	n.fdMisses = 0
	if err != nil {
		// The successor moved, or a leave or absorption is in flight.
		n.met.fdSuspicion.Set(0)
		n.mu.Unlock()
		return nil
	}
	n.publishLocked(next)
	n.jrn.Record(journal.KindCrashAbsorb, next.ringVer, 0,
		dead.ID, next.succ.Point, uint64(misses))
	n.mu.Unlock()
	n.met.crashAbsorbs.Inc()
	n.met.fdSuspicion.Set(0)
	n.tel.Emitf("crash.absorb", "successor %s silent for %d probes; absorbed [%v,+%d), new successor %s",
		dead.Addr, misses, prev.end, uint64(next.end-prev.end), next.succ.Addr)
	if next.succ.ID != n.id {
		n.sendPatch(next.succ.Addr, request{Op: opSetPred, NewPoint: uint64(next.x), NewAddr: n.addr, NewID: n.id})
	}
	n.notifyImageCovers(false)
	return nil
}

// refreshSuccs rebuilds the cached successor chain from the successor's
// fresh opState response (one extra RPC per additional hop). The chain
// is the replica placement target list; a change — a join, leave, or
// crash anywhere in the next K−1 ring positions — marks the owned range
// for re-replication.
func (n *Node) refreshSuccs(st response) {
	// Even fd-only nodes track two hops: the crash absorb needs the
	// successor's successor to heal the ring around a dead node.
	want := max(n.repl.K-1, 2)
	chain := []NodeInfo{{ID: st.ID, Point: st.Point, Addr: st.Addr}}
	next := NodeInfo{ID: st.SuccID, Point: st.End, Addr: st.SuccAddr}
	// wrapped means the walk came back to this node (or cycled): the
	// chain affirmatively enumerates every other live ring member. A walk
	// that broke on an unreachable hop leaves wrapped false — a short
	// chain then means "unknown", never "small ring".
	wrapped := false
	for len(chain) < want {
		if next.ID == n.id || next.Addr == n.addr {
			wrapped = true
			break // wrapped around the ring
		}
		if next.Addr == "" {
			break // successor reported no onward pointer: unknown, not a wrap
		}
		if slices.ContainsFunc(chain, func(c NodeInfo) bool { return c.ID == next.ID }) {
			wrapped = true
			break
		}
		chain = append(chain, next)
		if len(chain) >= want {
			break
		}
		r, err := n.rpc(next.Addr, request{Op: opState})
		if err != nil {
			break // a dead node mid-chain: keep the prefix, fd handles the rest
		}
		next = NodeInfo{ID: r.SuccID, Point: r.End, Addr: r.SuccAddr}
	}
	n.transit(func(c *ringCore) (*ringCore, error) { return c.refreshSuccs(chain, wrapped, n.repl.Enabled()) })
}

// --- repair ---

// runRepairs is the re-replication/repair pass at the end of a
// stabilization round: first re-materialize any crash-absorbed ranges
// from their replica holders, then push the owned range's replica
// payloads to the (possibly changed) successor chain. Both halves are
// rate-limited (repairBatch/repairPause) and idempotent — PutIfAbsent
// on the pull side, overwriting payload pushes on the push side.
func (n *Node) runRepairs() {
	if !n.repl.Enabled() {
		return
	}
	c, _, err := n.transit((*ringCore).takeRepairs)
	if err != nil || (len(c.repairSegs) == 0 && !c.replDirty) {
		return
	}
	n.met.repairRuns.Inc()
	// A segment whose gather missed the reconstruction quorum stays queued
	// (and with it the replica-read fallback): dropping it after one failed
	// pass would turn a transient partition into permanent NotFounds.
	var done []interval.Segment
	for _, s := range c.repairSegs {
		if n.repairAbsorbed(s, c.succs) {
			done = append(done, s)
		}
	}
	n.repairOwned(c.segment(), c.succs)
	n.transit(func(c *ringCore) (*ringCore, error) { return c.repaired(done) })
}

// repairAbsorbed re-materializes one crash-absorbed segment: gather its
// replica payloads from the successor chain (each holder streams its
// slice in one pass) plus the local replica store, reconstruct every
// key, and insert whatever is not already present — a write that landed
// at this node after the absorb is fresher than any replica and must
// win, which is exactly store.PutIfAbsent's contract.
//
// The return value reports whether the gather read the local replica
// store to its end and contacted at least a reconstruction quorum of
// remote holders (replicate.ReconstructQuorum, capped by how many the
// chain names): only such a pass may retire the segment — a gather that
// reached fewer holders (say, a partition right after the absorb) may
// simply have missed payloads that still exist, so the caller re-queues
// the segment instead.
func (n *Node) repairAbsorbed(seg interval.Segment, succs []NodeInfo) bool {
	type ik struct {
		p   interval.Point
		key string
	}
	gathered := make(map[ik][]byte) // the first readable copy of each key wins
	add := func(items []store.Item) error {
		for _, it := range items {
			k := ik{it.Point, it.Key}
			if _, have := gathered[k]; have {
				continue
			}
			if val, ok := replicate.Reconstruct([][]byte{it.Value}); ok {
				gathered[k] = val
			}
		}
		return nil
	}
	var localErr error
	if n.rdata != nil {
		localErr = store.Scan(n.rdata, seg, add)
	}
	remote, reached := 0, 0
	for _, s := range succs {
		if s.Addr == n.addr {
			continue
		}
		remote++
		items, err := n.pullReplStream(s.Addr, seg)
		if err != nil {
			continue // a still-dead holder; the others suffice at quorum
		}
		reached++
		add(items)
	}
	var repaired, volume int
	for k, val := range gathered {
		wrote, err := store.PutIfAbsent(n.data, k.p, k.key, val)
		if err == nil && wrote {
			repaired++
			volume += len(val)
			if repaired%repairBatch == 0 {
				time.Sleep(repairPause)
			}
		}
	}
	n.met.repairItems.Add(int64(repaired))
	n.met.repairBytes.Add(int64(volume))
	need := n.repl.ReconstructQuorum()
	if need > remote {
		// The chain itself names fewer holders (tiny ring, or the sole
		// survivor pulling only from its own replica store): reaching all
		// of them is the best any pass can do.
		need = remote
	}
	// A failed local read hides payloads just as an unreached holder does,
	// and the local store counts toward no quorum: what was gathered is
	// repaired above, but the segment is retired on neither.
	if localErr != nil || reached < need {
		n.tel.Emitf("repair.absorbed", "gather for [%v,+%d) reached %d of %d holders (quorum %d), local read error %v; re-queueing segment",
			seg.Start, seg.Len, reached, remote, need, localErr)
		return false
	}
	n.tel.Emitf("repair.absorbed", "re-materialized %d items (%d bytes) of [%v,+%d) from %d replica sources",
		repaired, volume, seg.Start, seg.Len, len(gathered))
	return true
}

// repairOwned re-replicates the owned range to the current successor
// chain. It walks the live store by store.Scan (no store lock is held
// while pushing, so concurrent writes interleave freely), pausing after
// every repairBatch items.
func (n *Node) repairOwned(seg interval.Segment, succs []NodeInfo) {
	targets := 0
	for _, s := range succs {
		if s.Addr != n.addr {
			targets++
		}
	}
	if targets == 0 {
		return
	}
	pushed := 0
	// A read error just ends the pass early: the next dirty round pushes again.
	_ = store.Scan(n.data, seg, func(items []store.Item) error {
		for _, it := range items {
			n.pushReplicas(uint64(it.Point), it.Key, it.Value, succs)
			if pushed++; pushed%repairBatch == 0 {
				time.Sleep(repairPause)
			}
		}
		return nil
	})
	if pushed > 0 {
		n.tel.Emitf("repair.owned", "re-replicated %d owned items to %d successors", pushed, targets)
	}
}
