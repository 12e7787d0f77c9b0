package p2p

import (
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"condisc/internal/continuous"
	"condisc/internal/doctor"
	"condisc/internal/handoff"
	"condisc/internal/hashing"
	"condisc/internal/interval"
	"condisc/internal/journal"
	"condisc/internal/replicate"
	"condisc/internal/store"
	"condisc/internal/telemetry"
)

// NodeInfo is a routing-table entry: a node's stable identifier, segment
// start, and address. The ID plays the role partition.Handle plays in the
// simulator: it names the same node across arbitrary churn, so neighbour
// tables keyed by it can be patched entry-by-entry by join/leave messages
// instead of being rebuilt.
type NodeInfo struct {
	ID    uint64
	Point uint64
	Addr  string
}

// Node is one Distance Halving DHT server.
type Node struct {
	id   uint64 // stable identifier, fixed for the node's lifetime
	addr string
	ln   net.Listener
	hash *hashing.Func

	// core is the published ring state, and mu its writer lock: the
	// package doc says who takes which side.
	mu   sync.RWMutex
	core atomic.Pointer[ringCore]
	// data is the node's item store, ordered by hash point so that a
	// churn handoff streams exactly the moving range (internal/store). It
	// is the in-memory engine unless WithStore installed a disk-backed one.
	data store.Store

	// sessions is the sender side of the node's handoff transfers: it
	// fences writes to a mid-handoff range and answers commit and abort —
	// on a disk-backed node from a durable record of every
	// commit decision, so a restarted process still answers for them.
	// Several join sessions over disjoint sub-ranges of the segment may
	// stream at once (handleHandPrepare bounds each at the next); their
	// commits resolve in ring order (handleHandCommit).
	sessions   *handoff.Sessions
	handoffTTL time.Duration
	chunkBytes int
	// recovered is a crashed join's staging session found on disk at
	// construction; StartJoin runs it to an outcome before a fresh join.
	recovered *handoff.Receiver
	// noPatches disables the incremental opPatchBack announcements,
	// leaving table repair to Stabilize alone — the ablation arm of the
	// E31 staleness-vs-stabilization experiment.
	noPatches bool

	// wire is how this node dials its peers; wire.timeout is its
	// request/response deadline (default the package rpcTimeout). The
	// failure detector needs tighter bounds than bulk handoff, so it is
	// per-node instead of a package constant.
	wire dialer
	// repl is the node's replication policy (disabled unless
	// WithReplication turned it on); rdata is the replica-payload store —
	// items this node holds FOR ITS PREDECESSORS, strictly separate from
	// the owned store so handoffs, doctor item counts, and digests never
	// mix the two planes.
	repl  replicate.Policy
	rdata store.Store
	// fdMisses counts consecutive failed successor probes (guarded by mu);
	// at fdThreshold the successor is declared dead and crashAbsorb runs.
	fdMisses    int
	fdThreshold int

	// tel is the node's telemetry registry (telemetry.Default unless
	// WithTelemetry gave this node its own — in-process clusters do, so
	// per-node load skew stays observable). met holds the pre-resolved
	// metric pointers the request path records into.
	tel *telemetry.Registry
	met nodeMetrics
	// jrn is the node's flight recorder (nil unless WithJournal attached
	// one): end/succ flips, handoff phases, and stale-route repairs are
	// recorded with the node's ring version as the causal stamp, then
	// served by /journalz and merged cluster-wide by dhctl journal.
	jrn *journal.Journal
	// adminAddr is the node's admin HTTP endpoint (a string), advertised in
	// opState responses so one ring member is enough to discover every
	// /statusz.
	adminAddr atomic.Value

	// failPatches injects opPatchBack failures for the retry tests: while
	// positive, incoming patches are refused (and the counter decremented).
	failPatches atomic.Int32
	// wrapWire, nil in production, lets a test wrap this node's line to
	// the sender of each inbound session: pause a stream, or kill the
	// receiver with handoff.ErrInterrupted at a chosen call.
	wrapWire func(handoff.Wire) handoff.Wire

	closed  chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
}

// NodeOption configures a Node at construction.
type NodeOption func(*Node)

// WithStore backs the node's items with s (for example a disk-backed WAL
// store from store.OpenLog) instead of the default in-memory store. The
// node takes ownership: Close closes the store.
func WithStore(s store.Store) NodeOption {
	return func(n *Node) { n.data = s }
}

// WithoutPatches disables the incremental join/leave backward-table
// announcements: tables are then repaired only by Stabilize, making table
// staleness a pure function of the stabilization interval (E31).
func WithoutPatches() NodeOption {
	return func(n *Node) { n.noPatches = true }
}

// WithTelemetry gives the node its own telemetry registry instead of the
// process-wide telemetry.Default. In-process clusters use one registry
// per node so /statusz and the E32 skew experiment see per-node load;
// dhnode (one node per process) keeps Default so store-level metrics
// land in the same scrape.
func WithTelemetry(reg *telemetry.Registry) NodeOption {
	return func(n *Node) { n.tel = reg }
}

// WithJournal attaches a flight recorder: the node records end/succ
// flips, handoff prepare/stream/commit/abort, and stale-route repairs
// into j (internal/journal). Like telemetry, the journal is a pure
// observer — it changes no protocol behaviour.
func WithJournal(j *journal.Journal) NodeOption {
	return func(n *Node) { n.jrn = j }
}

// WithRPCTimeout sets the node's request/response deadline (default the
// package rpcTimeout, 5s). Every deadline the node arms scales from it:
// control RPCs and the failure-detector probe use it directly, streamed
// handoff frames get the 10× idle allowance.
func WithRPCTimeout(d time.Duration) NodeOption {
	return func(n *Node) {
		if d > 0 {
			n.wire.timeout = d
		}
	}
}

// WithReplication enables k-successor replication under pol: every Put
// this node owns is also placed on its K−1 ring successors (acked at
// pol's quorum), owner misses fall back to replicas, and the node
// repairs replication after membership changes. It also arms the
// failure detector: a successor silent for fdThreshold consecutive
// stabilization probes is declared dead and its segment crash-absorbed.
func WithReplication(pol replicate.Policy) NodeOption {
	return func(n *Node) { n.repl = pol }
}

// WithReplicaStore backs the node's replica-payload plane with s (for
// example a second WAL store beside the primary) instead of the default
// in-memory store. The node takes ownership: Close closes the store.
func WithReplicaStore(s store.Store) NodeOption {
	return func(n *Node) { n.rdata = s }
}

// WithFDThreshold sets how many consecutive failed successor probes
// declare the successor dead (default 3). It also arms the failure
// detector even without replication — the ring then heals around a
// crashed node whose items are lost until an operator restores them.
func WithFDThreshold(k int) NodeOption {
	return func(n *Node) {
		if k > 0 {
			n.fdThreshold = k
		}
	}
}

// nodeMetrics holds the node's pre-resolved metric pointers: request
// handlers record through these, never through registry lookups.
type nodeMetrics struct {
	rpc [len(wireOps) + 1]*telemetry.Counter // per-op request counter, indexed by op; [0] counts anything else
	// routed counts every lookup/get/put request this node handled — the
	// paper's Definition 3 "active in a routing" load, live.
	routed       *telemetry.Counter
	ownerServed  *telemetry.Counter
	hops         *telemetry.Histogram // completed-lookup hop counts, recorded at the entry node
	staleRepairs *telemetry.Counter   // ring-hop fallbacks this node performed
	handPrepares *telemetry.Counter
	handCommits  *telemetry.Counter
	handAborts   *telemetry.Counter
	handBytesOut *telemetry.Counter
	handItemsIn  *telemetry.Counter
	// Replication plane: replica writes pushed out, quorum failures
	// surfaced to writers, replica-fallback reads attempted/served, crash
	// absorbs performed, and repair-loop volume. fdSuspicion is the
	// failure detector's live miss count against the current successor.
	replPuts       *telemetry.Counter
	replQuorumFail *telemetry.Counter
	replFallbacks  *telemetry.Counter
	replFallbackOK *telemetry.Counter
	crashAbsorbs   *telemetry.Counter
	repairRuns     *telemetry.Counter
	repairItems    *telemetry.Counter
	repairBytes    *telemetry.Counter
	fdSuspicion    *telemetry.Gauge
}

func newNodeMetrics(reg *telemetry.Registry) nodeMetrics {
	m := nodeMetrics{
		routed:       reg.Counter("condisc_p2p_msgs_routed_total"),
		ownerServed:  reg.Counter("condisc_p2p_owner_served_total"),
		hops:         reg.Histogram("condisc_p2p_lookup_hops"),
		staleRepairs: reg.Counter("condisc_p2p_stale_repairs_total"),
		handPrepares: reg.Counter("condisc_p2p_handoff_prepares_total"),
		handCommits:  reg.Counter("condisc_p2p_handoff_commits_total"),
		handAborts:   reg.Counter("condisc_p2p_handoff_aborts_total"),
		handBytesOut: reg.Counter("condisc_p2p_handoff_stream_bytes_total"),
		handItemsIn:  reg.Counter("condisc_p2p_handoff_items_in_total"),

		replPuts:       reg.Counter("condisc_p2p_repl_puts_total"),
		replQuorumFail: reg.Counter("condisc_p2p_repl_quorum_fail_total"),
		replFallbacks:  reg.Counter("condisc_p2p_repl_fallback_total"),
		replFallbackOK: reg.Counter("condisc_p2p_repl_fallback_hits_total"),
		crashAbsorbs:   reg.Counter("condisc_p2p_crash_absorbs_total"),
		repairRuns:     reg.Counter("condisc_p2p_repair_runs_total"),
		repairItems:    reg.Counter("condisc_p2p_repair_items_total"),
		repairBytes:    reg.Counter("condisc_p2p_repair_bytes_total"),
		fdSuspicion:    reg.Gauge("condisc_p2p_fd_suspicion"),
	}
	m.rpc[0] = reg.Counter(`condisc_p2p_rpc_total{op="other"}`)
	for i, name := range wireOps {
		if name != "" { // an unassigned code never decodes
			m.rpc[i+1] = reg.Counter(fmt.Sprintf("condisc_p2p_rpc_total{op=%q}", name))
		}
	}
	return m
}

// NewNode creates a node listening on addr ("127.0.0.1:0" for an ephemeral
// port). seed derives the shared item-hash function: all nodes of a cluster
// must use the same seed. The node's stable ID is derived from the seed and
// the bound address, so it is reproducible for a fixed deployment.
func NewNode(addr string, seed uint64, opts ...NodeOption) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("p2p: listen: %w", err)
	}
	bound := ln.Addr().String()
	n := &Node{
		id:     nodeID(seed, bound),
		addr:   bound,
		ln:     ln,
		hash:   hashing.NewKWise(8, rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))),
		closed: make(chan struct{}),

		handoffTTL: handoff.DefaultTTL,
		chunkBytes: handoff.DefaultChunkBytes,
	}
	for _, opt := range opts {
		opt(n)
	}
	if n.tel == nil {
		n.tel = telemetry.Default
	}
	n.met = newNodeMetrics(n.tel)
	n.wire.errs = newWireErrors(n.tel)
	if n.data == nil {
		n.data = store.NewMem()
	}
	if n.wire.timeout <= 0 {
		n.wire.timeout = rpcTimeout
	}
	if err := n.repl.Validate(); err != nil {
		ln.Close()
		return nil, err
	}
	// The failure detector arms with replication (crash repair needs it)
	// or with an explicit WithFDThreshold; fdThreshold == 0 keeps it off.
	if n.repl.Enabled() && n.fdThreshold == 0 {
		n.fdThreshold = 3
	}
	if n.repl.Enabled() && n.rdata == nil {
		n.rdata = store.NewMem()
	}
	commitLog := ""
	if dir := n.walDir(); dir != "" {
		commitLog = dir + ".commits"
	}
	if n.sessions, err = handoff.NewSessions(n.handoffTTL, commitLog); err != nil {
		ln.Close()
		return nil, err
	}
	if err := n.recoverStaging(); err != nil {
		ln.Close()
		return nil, err
	}
	n.core.Store(&ringCore{id: n.id, addr: n.addr})
	return n, nil
}

// nodeID derives a stable identifier from the cluster seed and the node's
// bound address (FNV-1a, seed-mixed).
func nodeID(seed uint64, addr string) uint64 {
	h := uint64(14695981039346656037) ^ seed
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return h
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.addr }

// Telemetry returns the node's metric registry.
func (n *Node) Telemetry() *telemetry.Registry { return n.tel }

// Journal returns the node's flight recorder (nil if none attached).
func (n *Node) Journal() *journal.Journal { return n.jrn }

// Doctor recomputes the paper's bounds this node can verify from local
// state alone (internal/doctor): routing-table degree vs Theorem 2.2,
// own-lookup hop p99 vs the Theorem 2.8 dilation bound at the §3
// segment-length size estimate, and the own-vs-predecessor segment
// balance proxy for Definition 1 smoothness. /doctorz serves the
// report; /healthz degrades while any verdict is breached.
func (n *Node) Doctor() doctor.Report {
	n.mu.RLock()
	c, misses := n.core.Load(), n.fdMisses
	n.mu.RUnlock()
	var predLen uint64
	if c.pred.Addr != "" && c.pred.ID != n.id {
		predLen = uint64(c.x - interval.Point(c.pred.Point))
	}
	stats := doctor.NodeStats{
		SegLen:  c.segment().Len,
		PredLen: predLen,
		Degree:  len(c.back) + 2, // back table + pred/succ ring pointers
		Delta:   Delta,
	}
	if n.repl.Enabled() && c.succs != nil {
		// Desired is the policy's K−1, capped by the ring size only when
		// the last chain walk wrapped: a walk that broke early must not
		// read healthy exactly when replica targets are missing. Live is
		// the non-self chain entries minus a suspected successor, and an
		// unfinished crash repair is pending — so the verdict degrades
		// when the detector suspects and recovers after absorb + repair.
		chainLive := 0
		for _, s := range c.succs {
			if s.ID != n.id && s.Addr != n.addr {
				chainLive++
			}
		}
		stats.ReplDesired = n.repl.K - 1
		if c.succsWrapped {
			stats.ReplDesired = min(stats.ReplDesired, chainLive) // the whole ring is smaller than K
		}
		stats.ReplLive = min(chainLive, stats.ReplDesired)
		if misses > 0 && stats.ReplLive > 0 {
			stats.ReplLive--
		}
		if len(c.repairSegs) > 0 {
			stats.ReplPending = 1
		}
	}
	stats.HopP99 = n.met.hops.Quantile(0.99)
	return doctor.DiagnoseNode(stats)
}

// SetAdminAddr records the node's admin HTTP endpoint; it is advertised
// in opState responses so a single ring member bootstraps discovery of
// every node's /statusz (dhctl top).
func (n *Node) SetAdminAddr(addr string) { n.adminAddr.Store(addr) }

func (n *Node) admin() string {
	addr, _ := n.adminAddr.Load().(string)
	return addr
}

// NodeStatus is the node half of /statusz: ring position, pointers,
// neighbour table, ownership state and store size, read from one core.
type NodeStatus struct {
	ID        uint64     `json:"id"`
	Addr      string     `json:"addr"`
	AdminAddr string     `json:"admin_addr,omitempty"`
	Point     uint64     `json:"point"`
	End       uint64     `json:"end"`
	RingVer   uint64     `json:"ring_ver"`
	Pred      NodeInfo   `json:"pred"`
	Succ      NodeInfo   `json:"succ"`
	Back      []NodeInfo `json:"back"`
	Items     int        `json:"items"`
	State     string     `json:"state"`        // ownership: joining, serving, leaving, absorbing, absorbing-extended
	Repairs   int        `json:"repair_queue"` // crash-absorbed segments not yet re-materialized from replicas
	// Replication plane (zero values when replication is off): the
	// policy's K, the cached successor chain replicas go to, and the
	// replica payloads held for predecessors.
	ReplK     int        `json:"repl_k,omitempty"`
	Succs     []NodeInfo `json:"succs,omitempty"`
	ReplItems int        `json:"repl_items,omitempty"`
}

// Status assembles the node's introspection snapshot.
func (n *Node) Status() NodeStatus {
	c := n.core.Load()
	st := NodeStatus{
		ID: n.id, Addr: n.addr, AdminAddr: n.admin(),
		Point: uint64(c.x), End: uint64(c.end), RingVer: c.ringVer,
		Pred: c.pred, Succ: c.succ, Back: slices.Clone(c.back),
		State: c.state.String(), Repairs: len(c.repairSegs),
		ReplK: n.repl.K, Succs: slices.Clone(c.succs),
		Items: n.data.Len(),
	}
	if n.rdata != nil {
		st.ReplItems = n.rdata.Len()
	}
	return st
}

// ID returns the node's stable identifier.
func (n *Node) ID() uint64 { return n.id }

// Point returns the node's segment start.
func (n *Node) Point() interval.Point { return n.core.Load().x }

// transit applies one transition under the writer lock and publishes its
// result, returning the core it replaced and the one it published.
func (n *Node) transit(t func(*ringCore) (*ringCore, error)) (prev, next *ringCore, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	prev = n.core.Load()
	if next, err = t(prev); err == nil {
		n.publishLocked(next)
	}
	return prev, next, err
}

// publishLocked makes next the node's ring state (mu held for writing),
// recording an end/succ move in the flight recorder.
func (n *Node) publishLocked(next *ringCore) {
	if next.ringVer != n.core.Load().ringVer {
		n.jrn.Record(journal.KindEndSuccFlip, next.ringVer, 0, uint64(next.end), next.succ.ID, 0)
	}
	n.core.Store(next)
}

// StartFirst bootstraps a one-node network: the node owns the full circle.
func (n *Node) StartFirst(x interval.Point) {
	self := NodeInfo{ID: n.id, Point: uint64(x), Addr: n.addr}
	n.transit(func(c *ringCore) (*ringCore, error) { return c.adopt(x, x, self, self, false) })
	n.serve()
}

// serve starts the accept loop.
func (n *Node) serve() {
	if n.started.Swap(true) {
		return
	}
	n.wg.Add(1)
	go n.acceptLoop()
}

// A failing Accept is retried after a pause that doubles from acceptBackoffMin
// to acceptBackoffMax and resets on the next success: a persistent failure
// (EMFILE, say) must not spin a core, a transient one must not stall the
// node for long.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	var backoff time.Duration
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			backoff = min(max(2*backoff, acceptBackoffMin), acceptBackoffMax)
			select {
			case <-n.closed:
				return
			case <-time.After(backoff):
				continue
			}
		}
		backoff = 0
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

// serveConn reads one request off conn and answers it.
func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	// Bound the initial request read: a peer that dialed and then died (or
	// never speaks) must not pin this goroutine forever. Generous — 10× the
	// RPC deadline — because the same accept path serves multi-frame streams
	// whose senders legitimately pause between chunks.
	conn.SetReadDeadline(time.Now().Add(10 * n.wire.timeout))
	var req request
	if err := readRequest(conn, &req); err != nil {
		n.wire.errs.note(err)
		return
	}
	conn.SetReadDeadline(time.Time{})
	switch req.Op {
	case opHandStream:
		// The response is a chunk stream on the same connection, not a
		// response message.
		n.handleStream(req, conn)
	case opReplStream:
		n.handleReplStream(req, conn)
	default:
		resp := n.handle(req)
		_ = writeResponse(conn, &resp)
	}
}

// Close shuts the node down (without the graceful Leave handoff).
func (n *Node) Close() {
	select {
	case <-n.closed:
		return
	default:
	}
	close(n.closed)
	n.ln.Close()
	n.wg.Wait()
	_ = n.data.Close()
	if n.rdata != nil {
		_ = n.rdata.Close()
	}
	_ = n.sessions.Close()
}

// handle dispatches one request.
func (n *Node) handle(req request) response {
	code := int(req.Op)
	if code >= len(n.met.rpc) {
		code = 0
	}
	n.met.rpc[code].Inc()
	c := n.core.Load()
	if err := c.admit(); err != nil {
		return response{Err: err.Error()}
	}
	switch req.Op {
	case opState:
		return response{OK: true, ID: n.id, Point: uint64(c.x), End: uint64(c.end),
			Addr: n.addr, SuccID: c.succ.ID, SuccAddr: c.succ.Addr, PredAddr: c.pred.Addr,
			AdminAddr: n.admin()}
	case opSetPred:
		return reply(n.transit(func(c *ringCore) (*ringCore, error) { return c.setPred(req.peer()) }))
	case opPatchBack:
		if n.failPatches.Load() > 0 && n.failPatches.Add(-1) >= 0 {
			return response{Err: "injected patch drop"} // test hook: see failPatches
		}
		return reply(n.transit(func(c *ringCore) (*ringCore, error) { return c.patchBack(req.Remove, req.peer()) }))
	case opHandPrepare:
		return n.handleHandPrepare(req)
	case opHandCommit:
		return n.handleHandCommit(req)
	case opHandAbort:
		return n.handleHandAbort(req)
	case opReplPut:
		return n.handleReplPut(req)
	case opReplGet:
		return n.handleReplGet(req)
	case opLeave:
		return n.handleLeave(req)
	case opLookup, opGet, opPut:
		return n.routeObserved(req)
	default:
		return response{Err: fmt.Sprintf("unknown op: %d", req.Op)}
	}
}

// reply answers a request with a transition's outcome: OK, or its refusal.
func reply(_, _ *ringCore, err error) response {
	if err != nil {
		return response{Err: err.Error()}
	}
	return response{OK: true}
}

// Patch delivery policy: every opPatchBack is acknowledged by its RPC
// response, and a failed delivery (transport error or remote refusal) is
// retried up to patchAttempts times with a short backoff — so a single
// dropped patch is repaired in milliseconds instead of waiting out a full
// stabilization interval (seconds). Patches remain an optimization over
// the Stabilize repair loop, never the source of truth for ring pointers.
const (
	patchAttempts   = 3
	patchRetryDelay = 5 * time.Millisecond
)

// sendPatch delivers one acknowledged patch with bounded retry, reporting
// whether any attempt succeeded.
func (n *Node) sendPatch(addr string, req request) bool {
	for attempt := 0; attempt < patchAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(patchRetryDelay)
		}
		if _, err := n.rpc(addr, req); err == nil {
			return true
		}
	}
	return false
}

// notifyImageCovers sends an incremental backward-table patch (add, or
// remove when leaving) for this node to every node whose segment
// intersects one of the Delta forward images of our segment — exactly the
// nodes whose backward image covers part of our segment, i.e. whose `back`
// table must list us. O(ρ·∆) recipients by Theorem 2.2.
//
// When leaving, the predecessor inherits our segment and must be listed
// wherever we were. A cover whose backward arc starts before our segment
// already lists it (a table is a contiguous run of ring covers); one whose
// arc starts inside our segment listed us first and not it, and without
// the predecessor it would wrap every point of our old segment to its
// far end. That cover gets the predecessor before the retraction.
func (n *Node) notifyImageCovers(remove bool) {
	if n.noPatches {
		return
	}
	c := n.core.Load()
	seg := c.segment()
	self := request{Op: opPatchBack, NewID: n.id, NewPoint: uint64(c.x), NewAddr: n.addr, Remove: remove}
	heir := request{Op: opPatchBack, NewID: c.pred.ID, NewPoint: c.pred.Point, NewAddr: c.pred.Addr}
	for k := uint64(0); k < Delta; k++ {
		covers, err := n.coversOfArc(continuous.DeltaImage(seg, Delta, k))
		if err != nil {
			continue
		}
		for _, c := range covers {
			if c.Addr == n.addr {
				continue
			}
			if remove && seg.Contains(interval.DeltaBack(interval.Point(c.Point), Delta)) {
				n.sendPatch(c.Addr, heir)
			}
			n.sendPatch(c.Addr, self)
		}
	}
}
