package p2p

import (
	"fmt"
	"math/rand/v2"
	"net"
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

	mu   sync.Mutex
	x    interval.Point // own segment start (fixed for the node's lifetime)
	end  interval.Point // segment end = successor's point
	pred NodeInfo
	succ NodeInfo
	// ringVer counts the (end, succ) updates this node has performed — a
	// version stamp, bumped only by setEndSuccLocked (which still runs
	// under mu). Handoff sessions record it at prepare time so commit can
	// tell a session prepared against the CURRENT segment tail from one
	// whose boundary was moved out from under it by an interleaved leave
	// absorption: the two kinds of transfer no longer exclude each other
	// wholesale, they serialize only at this version-stamped pointer
	// update. It is atomic so lock-free observers — the flight recorder's
	// causal stamps on paths that run outside mu, like stale-route
	// repair — can read it without racing the bump.
	ringVer atomic.Uint64
	// back holds the covers of the backward image b(s) — the neighbours
	// Fast Lookup hops through — keyed by stable node ID. Entries are
	// patched incrementally by opPatchBack messages when a neighbour joins
	// or leaves, and refreshed wholesale by Stabilize. backSorted is the
	// Point-sorted view the routing hot path binary-searches; it is
	// re-derived whenever back changes (the table has O(ρ·∆) entries).
	back       map[uint64]NodeInfo
	backSorted []NodeInfo
	// data is the node's item store, ordered by hash point so that a
	// churn handoff streams exactly the moving range (internal/store). It
	// is the in-memory engine unless WithStore installed a disk-backed one.
	data store.Store
	// leaving marks that a Leave handoff is in flight: item requests are
	// refused (explicit error, not a silent miss or a silently dropped
	// write) until the leave commits or aborts.
	leaving bool
	// ready marks that the node holds a ring position (StartFirst ran, or
	// a join committed and the segment was adopted). A node that is still
	// joining serves fast "retry" refusals instead of leaving peers to
	// hang on its open-but-unserved listener until their RPC deadline.
	ready bool

	// sessions is the sender side of the node's handoff transfers: it
	// fences writes to a mid-handoff range and answers commit, abort and
	// status — on a disk-backed node from a durable record of every
	// commit decision, so a restarted process still answers for them.
	// Several join sessions over disjoint sub-ranges of the segment may
	// stream at once (handleHandPrepare bounds each at the next); their
	// commits resolve in ring order (handleHandCommit).
	sessions   *handoff.Sessions
	handoffTTL time.Duration
	chunkBytes int
	// absorbing counts in-flight inbound leave absorptions (this node as
	// receiver). Leaves and further absorptions are refused while one
	// runs. Join prepares are NOT: a join may stream concurrently with
	// the absorption's stream, and the version-stamped commit path sorts
	// out whichever pointer update publishes second.
	absorbing int
	// absorbExtended marks the short window in which an absorption has
	// published its pointer extension but its commit at the leaver is
	// still unresolved. Join prepares are refused during this window
	// only: a session prepared then could not be handed a correct
	// successor — the leaver if the absorption rolls back, the leaver's
	// old successor if it commits.
	absorbExtended bool
	// recovered is a crashed join's staging session found on disk at
	// construction; StartJoin resumes or aborts it before a fresh join.
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
	// succs caches the K−1-deep ring successor chain (refreshed by
	// Stabilize; entry 0 is n.succ). It is both the replica placement
	// target list and — after the successor dies — the replica-holder
	// list crash repair pulls from (guarded by mu). succsWrapped records
	// whether the last chain walk affirmatively wrapped the ring (hit
	// this node again) rather than breaking on an unreachable hop — only
	// a wrapped chain proves the ring is smaller than the walk wanted,
	// which gates both the two-node crash absorb and the doctor's
	// desired-replica count.
	succs        []NodeInfo
	succsWrapped bool
	// Failure-detector state (guarded by mu): fdMisses counts consecutive
	// failed successor opState probes; at fdThreshold the successor is
	// declared dead and crashAbsorb runs. repairSegs queues absorbed
	// ranges whose items exist only as replicas until runRepairs
	// re-materializes them (repairPending spans that window); replDirty
	// asks the next Stabilize to re-replicate the owned range (set after
	// any membership change around this node).
	fdMisses      int
	fdThreshold   int
	repairPending bool
	repairSegs    []interval.Segment
	replDirty     bool

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
	// adminAddr is the node's admin HTTP endpoint, advertised in opState
	// responses so one ring member is enough to discover every /statusz.
	adminAddr string

	// failPatches injects opPatchBack failures for the retry tests: while
	// positive, incoming patches are refused (and the counter decremented).
	failPatches atomic.Int32
	// handoffChunkHook, when set by a test, runs before each received
	// stream chunk is staged; an error simulates the receiver dying
	// mid-stream (no cleanup runs — staging is left exactly as a crash
	// would leave it).
	handoffChunkHook func(chunk int) error
	// handoffCommitHook, when set by a test, runs after a join's commit
	// has landed at the sender but before this node adopts the range; an
	// error simulates the receiver dying in exactly the dual-crash
	// window (commit durable at the sender, acknowledgement lost here).
	handoffCommitHook func() error

	closed  chan struct{}
	wg      sync.WaitGroup
	started bool
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
		m.rpc[i+1] = reg.Counter(fmt.Sprintf("condisc_p2p_rpc_total{op=%q}", name))
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
	n.mu.Lock()
	seg := n.segmentLocked()
	var predLen uint64
	if n.pred.Addr != "" && n.pred.ID != n.id {
		predLen = uint64(n.x - interval.Point(n.pred.Point))
	}
	deg := len(n.backSorted) + 2 // back table + pred/succ ring pointers
	stats := doctor.NodeStats{
		SegLen:  seg.Len,
		PredLen: predLen,
		Degree:  deg,
		Delta:   Delta,
	}
	if n.repl.Enabled() && n.succs != nil {
		// Desired comes from the POLICY — K−1 replica targets — capped by
		// the ring size only when the last chain walk affirmatively
		// wrapped (succsWrapped). A walk that broke early must not shrink
		// desired, or the invariant would read healthy exactly when
		// replica targets are missing. Live is the non-self chain entries,
		// minus a currently-suspected successor; an unfinished crash
		// repair counts as one missing unit — so the verdict degrades the
		// moment the detector suspects and recovers only after absorb +
		// repair both completed.
		desired := n.repl.K - 1
		chainLive := 0
		for _, s := range n.succs {
			if s.ID != n.id && s.Addr != n.addr {
				chainLive++
			}
		}
		if n.succsWrapped && chainLive < desired {
			desired = chainLive // the whole ring is smaller than K
		}
		live := chainLive
		if live > desired {
			live = desired
		}
		if n.fdMisses > 0 && live > 0 {
			live--
		}
		stats.ReplDesired = desired
		stats.ReplLive = live
		if n.repairPending {
			stats.ReplPending = 1
		}
	}
	n.mu.Unlock()
	stats.HopP99 = n.met.hops.Quantile(0.99)
	return doctor.DiagnoseNode(stats)
}

// SetAdminAddr records the node's admin HTTP endpoint; it is advertised
// in opState responses so a single ring member bootstraps discovery of
// every node's /statusz (dhctl top).
func (n *Node) SetAdminAddr(addr string) {
	n.mu.Lock()
	n.adminAddr = addr
	n.mu.Unlock()
}

// NodeStatus is the node half of /statusz: ring position, pointers,
// neighbour table, and store size, read in one consistent snapshot.
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
	Ready     bool       `json:"ready"`
	Leaving   bool       `json:"leaving"`
	Absorbing int        `json:"absorbing"`
	// Replication plane (zero values when replication is off): the
	// policy's K, the cached successor chain replicas go to, the replica
	// payloads held for predecessors, and whether a crash repair is
	// still outstanding.
	ReplK         int        `json:"repl_k,omitempty"`
	Succs         []NodeInfo `json:"succs,omitempty"`
	ReplItems     int        `json:"repl_items,omitempty"`
	RepairPending bool       `json:"repair_pending,omitempty"`
}

// Status assembles the node's introspection snapshot.
func (n *Node) Status() NodeStatus {
	n.mu.Lock()
	st := NodeStatus{
		ID: n.id, Addr: n.addr, AdminAddr: n.adminAddr,
		Point: uint64(n.x), End: uint64(n.end), RingVer: n.ringVer.Load(),
		Pred: n.pred, Succ: n.succ,
		Back:  append([]NodeInfo(nil), n.backSorted...),
		Ready: n.ready, Leaving: n.leaving, Absorbing: n.absorbing,
		ReplK: n.repl.K, Succs: append([]NodeInfo(nil), n.succs...),
		RepairPending: n.repairPending,
	}
	n.mu.Unlock()
	st.Items = n.data.Len()
	if n.rdata != nil {
		st.ReplItems = n.rdata.Len()
	}
	return st
}

// ID returns the node's stable identifier.
func (n *Node) ID() uint64 { return n.id }

// setBackLocked replaces the whole backward table (mu held).
func (n *Node) setBackLocked(entries []NodeInfo) {
	n.back = make(map[uint64]NodeInfo, len(entries))
	for _, e := range entries {
		n.back[e.ID] = e
	}
	n.rebuildBackSortedLocked()
}

// patchBackLocked adds or removes one backward-table entry by stable ID
// (mu held) — the incremental churn message the simulator's handle-keyed
// adjacency lists correspond to on the wire.
func (n *Node) patchBackLocked(e NodeInfo, remove bool) {
	if remove {
		delete(n.back, e.ID)
	} else {
		n.back[e.ID] = e
	}
	n.rebuildBackSortedLocked()
}

func (n *Node) rebuildBackSortedLocked() {
	n.backSorted = n.backSorted[:0]
	for _, e := range n.back {
		n.backSorted = append(n.backSorted, e)
	}
	sortByPoint(n.backSorted)
}

// Point returns the node's segment start.
func (n *Node) Point() interval.Point {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.x
}

// setEndSuccLocked is the single place the node's segment end and ring
// successor change (callers hold mu). Funnelling every update — a join
// commit shrinking the tail, a leave absorption extending it, a
// stabilization repair, a rollback — through one version-bumping setter
// is what lets concurrent transfers interleave: each one validates the
// version (or the boundary geometry) it captured before publishing its
// own update, instead of locking the other kind out for its whole
// duration.
func (n *Node) setEndSuccLocked(end interval.Point, succ NodeInfo) {
	n.end = end
	n.succ = succ
	v := n.ringVer.Add(1)
	n.jrn.Record(journal.KindEndSuccFlip, v, 0, uint64(end), succ.ID, 0)
}

// segment returns the node's current segment (callers hold mu).
func (n *Node) segmentLocked() interval.Segment {
	if n.x == n.end {
		return interval.FullCircle
	}
	return interval.Segment{Start: n.x, Len: uint64(n.end - n.x)}
}

// StartFirst bootstraps a one-node network: the node owns the full circle.
func (n *Node) StartFirst(x interval.Point) {
	n.mu.Lock()
	n.x = x
	self := NodeInfo{ID: n.id, Point: uint64(x), Addr: n.addr}
	n.pred = self
	n.setEndSuccLocked(x, self)
	n.setBackLocked([]NodeInfo{self})
	n.ready = true
	n.mu.Unlock()
	n.serve()
}

func (n *Node) succInfo() NodeInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.succ
}

// serve starts the accept loop.
func (n *Node) serve() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
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
	n.mu.Lock()
	ready := n.ready
	n.mu.Unlock()
	if !ready {
		// Mid-join: no ring position to answer for yet. Refuse fast so a
		// peer that learned this address early (e.g. as the successor of
		// a concurrent join) retries or falls back to a ring hop instead
		// of hanging until its RPC deadline.
		return response{Err: "node is joining; retry"}
	}
	switch req.Op {
	case opState:
		n.mu.Lock()
		defer n.mu.Unlock()
		return response{OK: true, ID: n.id, Point: uint64(n.x), End: uint64(n.end),
			Addr: n.addr, SuccID: n.succ.ID, SuccAddr: n.succ.Addr, PredAddr: n.pred.Addr,
			AdminAddr: n.adminAddr}
	case opSetPred:
		n.mu.Lock()
		n.pred = NodeInfo{ID: req.NewID, Point: req.NewPoint, Addr: req.NewAddr}
		n.mu.Unlock()
		return response{OK: true}
	case opPatchBack:
		if n.failPatches.Load() > 0 && n.failPatches.Add(-1) >= 0 {
			return response{Err: "injected patch drop"} // test hook: see failPatches
		}
		n.mu.Lock()
		n.patchBackLocked(NodeInfo{ID: req.NewID, Point: req.NewPoint, Addr: req.NewAddr}, req.Remove)
		n.mu.Unlock()
		return response{OK: true}
	case opHandPrepare:
		return n.handleHandPrepare(req)
	case opHandCommit:
		return n.handleHandCommit(req)
	case opHandStatus:
		return n.handleHandStatus(req)
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
	n.mu.Lock()
	seg := n.segmentLocked()
	self := request{Op: opPatchBack, NewID: n.id, NewPoint: uint64(n.x), NewAddr: n.addr, Remove: remove}
	heir := request{Op: opPatchBack, NewID: n.pred.ID, NewPoint: n.pred.Point, NewAddr: n.pred.Addr}
	n.mu.Unlock()
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
