package p2p

import (
	"errors"
	"fmt"
	"time"

	"condisc/internal/continuous"
	"condisc/internal/interval"
	"condisc/internal/journal"
	"condisc/internal/route"
	"condisc/internal/telemetry"
)

// This file implements Fast Lookup (§2.2.1) over the wire, plus the
// stabilization pass that refreshes the backward-neighbour tables.

// Delta is the degree parameter ∆ of the DH graph the live node routes on
// (§2.3): a lookup takes ≈ log_∆ n hops through a backward table of ≈ ∆+1
// covers. A lookup's plan travels in Pos/StepsLeft and every hop advances
// it with the same map, so all nodes of a ring must agree on ∆: it is a
// constant, not an option, and changing it changes wireVersion.
const Delta = 4

// routeObserved wraps route with the node's observability: the routed-
// message load counter, the entry-node hop histogram, and — for traced
// requests — this node's Hop record, appended as the response unwinds so
// the owner ends up first and the entry node last. Every metric write is
// a pre-resolved atomic; the trace adds work only when TraceOn rode in.
func (n *Node) routeObserved(req request) response {
	entry := !req.Started
	var t0 time.Time
	if req.TraceOn {
		t0 = time.Now()
	}
	n.met.routed.Inc()
	resp := n.route(req)
	if req.Op == opGet && !resp.OK && n.fallbackWanted(resp) {
		// The owner is dead (or this node is mid-crash-repair): try to
		// reconstruct the value from replica payloads before giving up.
		resp = n.replicaFallback(req, resp)
	}
	if entry && resp.OK {
		n.met.hops.Observe(int64(resp.Hops))
	}
	if req.TraceOn && resp.OK {
		c := n.core.Load()
		resp.Trace = append(resp.Trace, Hop{ID: n.id, Addr: n.addr, Point: uint64(c.x), RingVer: c.ringVer,
			StaleIn: req.Stale, SubtreeNanos: time.Since(t0).Nanoseconds()})
	}
	return resp
}

// route handles lookup/get/put: if this node covers the target (or the
// walk has finished), it serves locally; otherwise it advances the Fast
// Lookup state one backward hop and forwards. The walk itself — the depth
// chosen at the entry node, and which steps stay inside a segment — is
// route.FastPlan/FastAdvance at Delta, shared with the simulator.
func (n *Node) route(req request) response {
	c := n.core.Load()
	seg := c.segment()
	target := interval.Point(req.Target)

	if !req.Started {
		// Fresh lookup entering at this node: the paper's step 1, with z
		// the middle of our own segment.
		pos, t := route.FastPlan(seg, target, Delta)
		req.Pos, req.StepsLeft, req.Started = uint64(pos), int(t), true
	}

	// Backward steps that stay inside our segment cost no network hop.
	pos, left := route.FastAdvance(seg, interval.Point(req.Pos), uint(req.StepsLeft), Delta)
	if left == 0 {
		// Walk done: we should cover the target; otherwise ring-forward.
		req.Pos, req.StepsLeft = uint64(pos), 0
		if seg.Contains(target) {
			return n.serveLocal(req)
		}
		return n.forward(c.ringStep(target), req)
	}

	// The next step pos' = ∆·pos leaves our segment: forward to its cover.
	pos = interval.DeltaBack(pos, Delta)
	req.Pos, req.StepsLeft = uint64(pos), int(left)-1
	next := c.nextHop(pos)
	ring := c.ringStep(pos)
	resp, delivered := n.tryForward(next, req)
	if !delivered && ring.Addr != next.Addr {
		// Stale backward-table entry (e.g. a departed node): the ring
		// pointers are maintained synchronously and always name a live
		// node, so fall back to a ring hop. The Stale counter records the
		// repair — the staleness observable E31 sweeps against the
		// stabilization interval.
		req.Stale++
		n.met.staleRepairs.Inc()
		n.jrn.Record(journal.KindStaleRepair, c.ringVer, 0,
			req.Target, uint64(req.Hops), 0)
		resp, _ = n.tryForward(ring, req)
	}
	return resp
}

// serveLocal executes the data operation at the owner, holding the read
// side of mu from its ownership check through its store access: a Get
// checked before a commit flip reads before the flip's range delete, and a
// Put checked before a Leave lands before the leave stream starts. A
// boundary moved since route read its core ring-forwards the request. An
// owned Put's replica payloads go out after the lock is released.
func (n *Node) serveLocal(req request) response {
	n.mu.RLock()
	c := n.core.Load()
	target := interval.Point(req.Target)
	if !c.segment().Contains(target) {
		n.mu.RUnlock()
		return n.forward(c.ringStep(target), req)
	}
	resp := n.serveLocked(c, req)
	n.mu.RUnlock()
	if req.Op == opPut && resp.OK && n.repl.Enabled() {
		// An empty chain (a node that has not stabilized yet) still goes
		// through the quorum check: one local ack must not satisfy K>1.
		n.replicatePut(req, &resp, c.succs)
	}
	return resp
}

// serveLocked serves one data operation against c (mu held for reading).
func (n *Node) serveLocked(c *ringCore, req request) response {
	if req.Op == opGet || req.Op == opPut {
		fenced := req.Op == opPut && n.sessions.Fenced(interval.Point(req.Target))
		if err := c.serves(req.Op == opPut, fenced); err != nil {
			return response{Err: err.Error(), Hops: req.Hops}
		}
	}
	n.met.ownerServed.Inc()
	resp := response{OK: true, Hops: req.Hops, Stale: req.Stale,
		ID: n.id, Point: uint64(c.x), End: uint64(c.end), Addr: n.addr,
		SuccID: c.succ.ID, SuccAddr: c.succ.Addr, PredAddr: c.pred.Addr,
		RingVer: c.ringVer}
	switch req.Op {
	case opGet:
		v, ok, err := n.data.Get(interval.Point(req.Target), req.Key)
		if err != nil {
			return response{Err: "store get: " + err.Error(), Hops: req.Hops}
		}
		if !ok {
			// The owner was reached and the key is absent: a genuine miss,
			// distinct from an unreachable owner (see response.NotFound).
			return response{Err: "key not found: " + req.Key, Hops: req.Hops, NotFound: true}
		}
		resp.Val = v
	case opPut:
		if err := n.data.Put(interval.Point(req.Target), req.Key, req.Val); err != nil {
			return response{Err: "store put: " + err.Error(), Hops: req.Hops}
		}
	}
	return resp
}

// forward relays the request to the next node, incrementing the hop count.
func (n *Node) forward(next NodeInfo, req request) response {
	resp, _ := n.tryForward(next, req)
	return resp
}

// tryForward relays the request; delivered is false when the next node was
// unreachable (as opposed to a remote application error).
func (n *Node) tryForward(next NodeInfo, req request) (response, bool) {
	req.Hops++
	if req.Hops > 4096 {
		return response{Err: "hop limit exceeded"}, true
	}
	resp, err := n.rpc(next.Addr, req)
	if err != nil && resp.Err == "" {
		// Transport failure (dial/send/read), not a remote refusal:
		// the key's presence is unknown, which is what Unreachable means.
		return response{Err: err.Error(), Hops: req.Hops, Unreachable: true}, false
	}
	if err != nil {
		// Remote application error: relay the miss/unreachable flags
		// outward so the entry node (and every hop on the unwind) can
		// distinguish them — the replica fallback triggers on Unreachable.
		return response{Err: resp.Err, Hops: req.Hops,
			NotFound: resp.NotFound, Unreachable: resp.Unreachable}, true
	}
	return resp, true
}

// Stabilize refreshes the node's view: re-reads the successor's state
// (adopting a new successor if one joined in between), re-enumerates
// the covers of the backward image b(s) — an arc ∆ times as long as s —
// by walking the ring from the owner of the arc start, and — with
// replication on — refreshes the successor chain and runs the repair pass.
//
// The successor probe doubles as the failure detector's heartbeat: no
// extra message class exists, liveness piggybacks on the opState traffic
// stabilization already generates. fdThreshold consecutive probe
// failures declare the successor dead and trigger crashAbsorb.
func (n *Node) Stabilize() error {
	succ := n.core.Load().succ

	// Successor refresh: if succ's pred is between us and succ, adopt it.
	// All RPCs happen without holding mu (a node may be stabilized against
	// while stabilizing).
	st, err := n.rpc(succ.Addr, request{Op: opState})
	if n.noteProbe(succ, err) {
		// The detector tripped: declare the successor dead, absorb its
		// segment, and let the next rounds refresh the chain + repair.
		return n.crashAbsorb(succ)
	}
	if err != nil {
		return err
	}
	var cand *NodeInfo
	if st.PredAddr != "" && st.PredAddr != n.addr {
		if ps, err2 := n.rpc(st.PredAddr, request{Op: opState}); err2 == nil {
			cand = &NodeInfo{ID: ps.ID, Point: ps.Point, Addr: ps.Addr}
		}
	}
	// Steady state re-reads the same end; only a real repair bumps the
	// ring version (a spurious bump would fast-fail in-flight commits).
	_, c, err := n.transit(func(c *ringCore) (*ringCore, error) {
		return c.stabilized(cand, interval.Point(st.Point), st.PredAddr)
	})
	if err != nil {
		return err
	}

	// Successor-chain refresh for the replica plane (and the crash
	// absorb's two-hop lookahead). The probe response already names the
	// successor's successor, so K=3 costs no extra RPCs here.
	if n.repl.Enabled() || n.fdThreshold > 0 {
		n.refreshSuccs(st)
	}

	// Re-replication/repair pass: runs synchronously (and BEFORE the
	// backward-table refresh, which can still fail while other nodes'
	// tables reference a crashed member) so a fixed number of
	// stabilization sweeps deterministically converges the replication
	// factor after a crash — E34 and the smoke test rely on that.
	n.runRepairs()

	// Re-enumerate backward neighbours: covers of b(s). This wholesale
	// refresh is the repair loop; between passes the ID-keyed table is
	// kept current by the incremental opPatchBack messages joins and
	// leaves send.
	covers, err := n.coversOfArc(continuous.DeltaBackImage(c.segment(), Delta))
	if err != nil {
		return err
	}
	_, _, err = n.transit(func(c *ringCore) (*ringCore, error) { return c.setBack(covers) })
	return err
}

// coversOfArc finds all nodes whose segments intersect the arc, by looking
// up the arc start's owner and walking successor pointers. The lookup
// enters at this node as a peer's request would, without dialing itself.
// A cover's End is its successor's point (setEndSucc sets the two
// together), so the walk stops at the first cover whose End lies outside
// the arc without asking that successor for its state.
func (n *Node) coversOfArc(arc interval.Segment) ([]NodeInfo, error) {
	first := n.handle(request{Op: opLookup, Target: uint64(arc.Start)})
	if !first.OK {
		return nil, fmt.Errorf("p2p: lookup of %v: %s", arc.Start, first.Err)
	}
	covers := []NodeInfo{{ID: first.ID, Point: first.Point, Addr: first.Addr}}
	cur := first
	for i := 0; i < 4096; i++ {
		if cur.SuccAddr == "" || cur.SuccAddr == first.Addr || !arc.Contains(interval.Point(cur.End)) {
			break
		}
		st, err := n.rpc(cur.SuccAddr, request{Op: opState})
		if err != nil {
			return nil, err
		}
		if !arc.Contains(interval.Point(st.Point)) || st.Addr == first.Addr {
			break
		}
		covers = append(covers, NodeInfo{ID: st.ID, Point: st.Point, Addr: st.Addr})
		cur = st
	}
	sortByPoint(covers)
	return covers, nil
}

// --- client API ---

// Client-visible Get failure classes. A genuine miss (the owner was
// reached and the key is absent) and an unreachable owner (connection
// refused or timed out somewhere on the route, so the key's presence is
// unknown) are different failures with different remedies: the former
// is final, the latter is the replica-fallback/repair trigger and is
// worth retrying once the ring heals. Test with errors.Is.
var (
	ErrNotFound         = errors.New("p2p: key not found")
	ErrOwnerUnreachable = errors.New("p2p: key owner unreachable")
)

// classifyGet wraps a failed Get's error with the sentinel matching the
// response's miss/unreachable flags.
func classifyGet(resp response, err error) error {
	if err == nil {
		return nil
	}
	switch {
	case resp.Unreachable:
		return fmt.Errorf("%w: %s", ErrOwnerUnreachable, err)
	case resp.NotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, err)
	}
	return err
}

// Client talks to a cluster through a bootstrap node.
type Client struct {
	Bootstrap string
	// Tel, when non-nil, receives client-side lookup metrics (hops,
	// staleness, errors); nil means telemetry.Default. E31 points it at a
	// fresh registry per sweep configuration so each run's tallies are
	// isolated without any manual counting.
	Tel *telemetry.Registry
}

func (c *Client) reg() *telemetry.Registry {
	if c.Tel != nil {
		return c.Tel
	}
	return telemetry.Default
}

// recordLookup tallies one client-observed operation outcome.
func (c *Client) recordLookup(resp response, err error) {
	r := c.reg()
	r.Counter("condisc_client_lookups_total").Inc()
	if err != nil {
		r.Counter("condisc_client_lookup_errors_total").Inc()
		return
	}
	r.Histogram("condisc_client_lookup_hops").Observe(int64(resp.Hops))
	if resp.Stale > 0 {
		r.Counter("condisc_client_stale_lookups_total").Inc()
		r.Counter("condisc_client_stale_repairs_total").Add(int64(resp.Stale))
	}
}

// Lookup returns the owner of a key's hash point along with the hop count.
func (c *Client) Lookup(p interval.Point) (owner string, hops int, err error) {
	owner, hops, _, err = c.LookupStats(p)
	return owner, hops, err
}

// LookupStats resolves a point's owner and also reports how many stale
// backward-table entries the route hit (each one a failed dial repaired
// by a ring-hop fallback) — the E31 staleness probe.
func (c *Client) LookupStats(p interval.Point) (owner string, hops, stale int, err error) {
	resp, err := call(c.Bootstrap, request{Op: opLookup, Target: uint64(p)})
	c.recordLookup(resp, err)
	if err != nil {
		return "", 0, 0, err
	}
	return resp.Addr, resp.Hops, resp.Stale, nil
}

// Put stores a value under key.
func (c *Client) Put(key string, val []byte, h func(string) interval.Point) (int, error) {
	resp, err := call(c.Bootstrap, request{Op: opPut, Key: key, Val: val, Target: uint64(h(key))})
	c.recordLookup(resp, err)
	if err != nil {
		return 0, err
	}
	return resp.Hops, nil
}

// Get retrieves the value under key. Failures are classified: a genuine
// miss matches ErrNotFound, a dead or partitioned owner matches
// ErrOwnerUnreachable (see the sentinels above).
func (c *Client) Get(key string, h func(string) interval.Point) ([]byte, int, error) {
	resp, err := call(c.Bootstrap, request{Op: opGet, Key: key, Target: uint64(h(key))})
	c.recordLookup(resp, err)
	if err != nil {
		return nil, 0, classifyGet(resp, err)
	}
	return resp.Val, resp.Hops, nil
}

// TraceResult is a resolved per-hop lookup trace, origin-first.
type TraceResult struct {
	Owner   string // owner's address
	Hops    int    // network hops taken
	Stale   int    // stale-route repairs along the way
	RingVer uint64 // owner's ring version at serve time (terminal epoch)
	Path    []Hop  // entry node first, owner last
}

// Trace resolves p's owner with per-hop tracing on: every node on the
// route appends its Hop record as the response unwinds (owner-first), and
// Trace reverses it so Path reads in travel order. Per-hop latency is the
// difference of successive SubtreeNanos — each node's span contains its
// downstream's, so no cross-node clock agreement is needed.
func (c *Client) Trace(p interval.Point) (TraceResult, error) {
	resp, err := call(c.Bootstrap, request{Op: opLookup, Target: uint64(p), TraceOn: true})
	c.recordLookup(resp, err)
	if err != nil {
		return TraceResult{}, err
	}
	path := make([]Hop, len(resp.Trace))
	for i, h := range resp.Trace {
		path[len(path)-1-i] = h
	}
	return TraceResult{Owner: resp.Addr, Hops: resp.Hops, Stale: resp.Stale,
		RingVer: resp.RingVer, Path: path}, nil
}

// NodeState is one ring member as seen by RingStates.
type NodeState struct {
	ID        uint64
	Point     uint64
	End       uint64
	Addr      string
	SuccAddr  string
	PredAddr  string
	AdminAddr string
}

// RingStates walks successor pointers from the bootstrap node and returns
// every ring member's state, in ring order starting at the bootstrap.
// This is how dhctl top discovers a whole cluster's admin endpoints from
// a single address.
func (c *Client) RingStates() ([]NodeState, error) {
	first, err := call(c.Bootstrap, request{Op: opState})
	if err != nil {
		return nil, err
	}
	toState := func(r response) NodeState {
		return NodeState{ID: r.ID, Point: r.Point, End: r.End, Addr: r.Addr,
			SuccAddr: r.SuccAddr, PredAddr: r.PredAddr, AdminAddr: r.AdminAddr}
	}
	states := []NodeState{toState(first)}
	cur := first
	for i := 0; i < 4096; i++ {
		if cur.SuccAddr == "" || cur.SuccAddr == first.Addr {
			return states, nil
		}
		st, err := call(cur.SuccAddr, request{Op: opState})
		if err != nil {
			return nil, fmt.Errorf("p2p: ring walk at %s: %w", cur.SuccAddr, err)
		}
		states = append(states, toState(st))
		cur = st
	}
	return nil, fmt.Errorf("p2p: ring walk did not close after %d nodes", 4096)
}

// HashFunc returns the node's item-hash (shared across a cluster seed).
func (n *Node) HashFunc() func(string) interval.Point { return n.hash.Point }

// NumItems returns how many items the node stores.
func (n *Node) NumItems() int {
	return n.data.Len()
}
