// Package p2p is a real-network implementation of the Distance Halving DHT
// (§2) over TCP: nodes own segments of [0,1), route lookups along the
// backward edges of the continuous graph (Fast Lookup, §2.2.1), and
// maintain their neighbour tables with a Chord-style stabilization pass.
//
// Design notes:
//
//   - The ring pointers (pred/succ) are updated synchronously during Join
//     and Leave, so they are always correct; the de Bruijn backward tables
//     are refreshed by Stabilize and used opportunistically — when a table
//     misses the next hop the node falls back to a ring hop, trading hops
//     for progress (the standard correctness/efficiency split in DHTs).
//   - Every control RPC is one request/response over a fresh TCP
//     connection, each a single CRC-checked frame with a hand-written
//     fixed binary layout (wire.go; the framing is internal/frame, shared
//     with the WAL and the handoff streams). Recursive routing: each hop
//     dials the next node and relays the response back.
//   - Item transfer during churn is NOT a control RPC: Join and Leave run
//     prepare→stream→commit handoff sessions (internal/handoff), where
//     the opHandStream response is a chunk stream of the same frames on
//     the same connection — bounded memory however large the range,
//     resumable after a disconnect, and ownership flips only at commit.
//   - All nodes share the item-hash function, derived from a cluster seed.
package p2p

// op names a request's operation. Its value is the op's code on the wire
// (wire.go), so the order below is part of the protocol: append, never
// reorder, and leave a retired op's code unassigned. wireOps names them
// for metric labels.
type op byte

const (
	opState     op = iota + 1 // node status: id, point, end, ring pointers
	opLookup                  // route to the owner of a point
	opGet                     // route + read
	opPut                     // route + write
	opSetPred                 // update predecessor pointer
	opPatchBack               // incremental backward-table patch (add/remove one ID-keyed entry)
	opLeave                   // leave offer: the predecessor pulls a handoff session from the leaver

	// Handoff session ops (two-phase churn transfer, internal/handoff).
	opHandPrepare // joiner opens a session at the segment owner
	opHandStream  // pull the chunk stream (chunk frames follow, no response message)
	opHandCommit  // flip ownership: sender deletes the range and repoints (idempotent)
	_             // code 11, unassigned: was a status probe, which a delayed commit could overtake
	opHandAbort   // receiver resolves a lost commit or a refused stream: abort unless already committed

	// Replication ops (k-successor replica plane, internal/replicate).
	// These address a node directly — they are never routed — and move
	// opaque replica payloads, not live items, so the no-bulk-payload rule
	// below still holds for the routed request types.
	opReplPut    // owner pushes one replica payload to a successor
	opReplGet    // read one replica payload (replica-fallback Get, repair gather)
	opReplStream // pull a segment's replica payloads as a framed chunk stream
)

// wireOps is each op's name, indexed by its code minus one; "" marks an
// unassigned code, which the decoder refuses.
var wireOps = [...]string{"state", "lookup", "get", "put", "setpred", "patchback", "leave",
	"hprepare", "hstream", "hcommit", "", "habort", "replput", "replget", "replstream"}

// request is the single wire request type. There is deliberately no bulk
// item payload: since the handoff protocol replaced the single-RPC
// join/leave transfer, no request or response can carry a range of items,
// so the old unbounded-memory path cannot be reintroduced by accident.
type request struct {
	Op  op
	Key string
	Val []byte
	// Target is the lookup target point (fixed-point uint64).
	Target uint64
	// Pos and StepsLeft carry Fast Lookup routing state; Started marks
	// that the walk has been initialized by the first node on the path.
	Pos       uint64
	StepsLeft int
	Started   bool
	Hops      int
	// Stale counts the stale backward-table entries this lookup hit — a
	// next hop whose node was unreachable, repaired by falling back to a
	// ring hop. E31 sweeps this against the stabilization interval.
	Stale int
	// NewAddr/NewPoint/NewID describe a joining, leaving, or patched node.
	NewAddr  string
	NewPoint uint64
	NewID    uint64
	// Remove marks an opPatchBack that retracts (rather than adds) the
	// entry with NewID.
	Remove bool
	// Handoff session fields. Session names the transfer (nonzero);
	// SrcAddr is the stream source in a leave offer; SegStart/SegLen
	// carry the moving range; FromPoint/FromKey (valid when HasFrom)
	// resume a broken stream strictly after the last staged position.
	Session   uint64
	SrcAddr   string
	SegStart  uint64
	SegLen    uint64
	FromPoint uint64
	FromKey   string
	HasFrom   bool
	// TraceOn asks every node on the route to append a Hop record to the
	// response on the way back — the per-hop lookup trace dhctl renders.
	TraceOn bool
}

// peer is the node a request's NewID/NewPoint/NewAddr describe.
func (r request) peer() NodeInfo { return NodeInfo{ID: r.NewID, Point: r.NewPoint, Addr: r.NewAddr} }

// Hop is one node's per-hop trace record, appended as a traced response
// unwinds through the recursive route. The first element of a response's
// Trace is therefore the owner, the last the entry node; clients reverse
// it for display.
type Hop struct {
	ID    uint64
	Addr  string
	Point uint64
	// SubtreeNanos is the time from this node receiving the request to
	// its response being ready — it includes every downstream hop, so
	// successive differences give per-hop latency without any cross-node
	// clock agreement (each node only ever reports its own local
	// monotonic duration).
	SubtreeNanos int64
	// StaleIn is the stale-repair count the request carried when it
	// arrived here (repairs performed upstream of this node).
	StaleIn int
	// RingVer is this node's ring-pointer version when it handled the
	// request.
	RingVer uint64
}

// response is the single wire response type.
type response struct {
	OK  bool
	Err string
	// Retry marks a refusal as transient: the same request may succeed
	// shortly (e.g. a commit waiting for an outer handoff session to
	// resolve). Non-retry refusals are definitive.
	Retry bool
	Val   []byte
	Hops  int
	Stale int
	// Node status fields.
	ID       uint64
	Point    uint64
	End      uint64
	Addr     string
	SuccID   uint64
	SuccAddr string
	PredAddr string
	// AdminAddr is the node's admin HTTP endpoint ("" when disabled),
	// reported in opState so dhctl top can scrape a whole ring having
	// been told only one member.
	AdminAddr string
	// State answers an opHandAbort with the session's final state.
	State string
	// NotFound marks a Get refusal as a genuine miss: the owner was
	// reached and the key is not there. Unreachable marks the opposite
	// failure: some hop could not reach the next node (connection
	// refused/timeout), so the key's presence is UNKNOWN — a dead owner
	// and an absent key must not look alike, because only the former is
	// the replica-fallback trigger. Both flags survive the recursive
	// unwind: every relaying hop copies them outward.
	NotFound    bool
	Unreachable bool
	// Trace accumulates per-hop records when the request had TraceOn
	// (owner first; see Hop). RingVer is the owner's ring-pointer
	// version at serve time — the terminal epoch of the lookup.
	Trace   []Hop
	RingVer uint64
}
