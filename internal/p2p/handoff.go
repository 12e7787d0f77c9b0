package p2p

// This file wires the internal/handoff session protocol into the node:
// Join and Leave both move their segment's items as a streaming, two-phase
// (prepare → stream → commit) transfer. Ownership — ring pointers on the
// sender plus the sender-side range delete — flips only at commit, and the
// receiver promotes its durably staged items into its live store BEFORE
// asking for that commit, so a crash or disconnect at any point leaves
// exactly one owner and every item in at least one durable store.
//
// Join (the joiner drives; the segment owner is the sender):
//
//	joiner                         owner
//	  |--- opHandPrepare(mid) ------>|  fence [mid,end), register session
//	  |<-- ring info ----------------|
//	  |--- opHandStream ------------>|  cursor over the fenced range
//	  |<== framed chunks ===========>|  staged durably as they arrive
//	  |   (disconnect? reconnect with FromPoint/FromKey and resume)
//	  |   promote staging → live store (durable, still unowned)
//	  |--- opHandCommit ------------>|  delete range + end/succ := joiner
//	  |<-- ok ----------------------|
//	  |   adopt ring pointers, serve, patch covers, stabilize
//
// Leave (the leaver offers; its predecessor drives the same pull):
//
//	leaver                         pred
//	  |--- opLeave(seg, succ) ------>|  accept, then asynchronously:
//	  |<== opHandStream pull ========|  leaver streams its segment
//	  |                              |  pred promotes, extends end/succ
//	  |<-- opHandCommit -------------|  leaver clears store, wakes Leave()
//	  |   repoint successor, close
//
// A restarted joiner (same address and data directory) finds its staging
// manifest, probes the owner with opHandStatus, and resumes the stream,
// finishes a committed session, or aborts cleanly and joins fresh.

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"condisc/internal/handoff"
	"condisc/internal/interval"
	"condisc/internal/journal"
	"condisc/internal/store"
)

// sessMeta is the sender-side per-session state: what to do at commit.
type sessMeta struct {
	kind   string // handoff.RoleJoin or handoff.RoleLeave
	joiner NodeInfo
	// ringVer is the node's (end, succ) version at prepare time. A join
	// commit whose stamp is stale AND whose range is no longer the segment
	// tail was prepared against a boundary that has since moved (a leave
	// absorption extended it): it can be refused definitively instead of
	// making the joiner spin on retries that can never succeed.
	ringVer uint64
}

// Stream reconnect policy: a broken stream connection is retried with the
// receiver's resume position; a sender refusal (unknown/expired session)
// is terminal.
const (
	streamAttempts   = 4
	streamRetryDelay = 25 * time.Millisecond
	// joinAttempts bounds the lookup/prepare retries of StartJoin: each
	// refusal (a contested midpoint mid-handoff to a concurrent joiner,
	// an owner absorbing a leave, a route through a still-joining node)
	// retries at a fresh uniformly-sampled point.
	joinAttempts   = 8
	joinRetryDelay = 50 * time.Millisecond
)

// errHookKill marks a test-injected receiver death: the caller must NOT
// clean up (no abort, no staging removal) — the point is to leave the
// on-disk state exactly as a crash would.
var errHookKill = errors.New("p2p: handoff receiver killed by test hook")

func u64s(v uint64) string { return strconv.FormatUint(v, 10) }

func metaU64(m map[string]string, k string) uint64 {
	v, _ := strconv.ParseUint(m[k], 10, 64)
	return v
}

// --- joiner side ---

// StartJoin joins an existing network through the bootstrap address,
// implementing Algorithm Join of §2.1 with the Improved Single Choice ID
// rule of §4: sample a random z, look up its owner, and take the middle of
// that owner's segment. The item transfer is a resumable handoff session;
// if this node crashed mid-join and was restarted on the same address and
// data directory, the recovered session is resumed (or aborted cleanly)
// before any fresh join.
func (n *Node) StartJoin(bootstrap string, rng *rand.Rand) error {
	// Serve (fast refusals, see handle) from the first moment other nodes
	// can learn this address — a concurrent joiner may be told we are its
	// successor before our own join completes.
	n.serve()
	if rec := n.recovered; rec != nil {
		n.recovered = nil
		joined, err := n.resumeJoin(rec)
		if joined || err != nil {
			return err
		}
		// The sender had expired the session and kept the range; the
		// rollback is done and a fresh join follows.
	}
	// Pick a split point and prepare a session at its owner. The first
	// attempt takes the middle of the owner's segment (Improved Single
	// Choice, §4); a refusal — the point's surroundings are mid-handoff
	// to another concurrent joiner, or the owner is absorbing a leave —
	// retries with the fresh uniform sample itself (plain Single Choice),
	// which lands in a disjoint sub-range with fresh randomness instead
	// of recomputing the same contested midpoint.
	var prep response
	var sess uint64
	var joinPt interval.Point
	var ownerAddr string
	for attempt := 0; ; attempt++ {
		retriable := func(err error) error {
			// A refused lookup (a route through a node that is itself
			// mid-join answers "joining; retry") is as transient as a
			// refused prepare: burn an attempt, don't fail the join.
			if attempt >= joinAttempts-1 {
				return err
			}
			time.Sleep(joinRetryDelay)
			return nil
		}
		z := interval.Point(rng.Uint64())
		owner, err := n.wire.lookup(bootstrap, z)
		if err != nil {
			if rerr := retriable(err); rerr != nil {
				return rerr
			}
			continue
		}
		p := interval.Point(owner.Point) + interval.Point(uint64(owner.End-owner.Point)/2)
		if attempt > 0 {
			p = z
		}
		if uint64(p) == owner.Point { // degenerate tiny segment; fall back
			p = interval.Point(rng.Uint64())
			owner, err = n.wire.lookup(bootstrap, p)
			if err != nil {
				if rerr := retriable(err); rerr != nil {
					return rerr
				}
				continue
			}
			if uint64(p) == owner.Point {
				continue
			}
		}
		sess = rng.Uint64() | 1
		prep, err = n.rpc(owner.Addr, request{Op: opHandPrepare, Session: sess,
			NewPoint: uint64(p), NewAddr: n.addr, NewID: n.id})
		if err == nil {
			joinPt, ownerAddr = p, owner.Addr
			break
		}
		if prep.Err == "" || attempt >= joinAttempts-1 {
			return err // transport failure, or out of retries
		}
		// A refused prepare (contested point, owner absorbing a leave) is
		// transient on the scale of a transfer — pace the retries so the
		// budget actually spans one instead of burning out in
		// milliseconds of round-trips.
		time.Sleep(joinRetryDelay)
	}
	// The session range is exactly this node's future segment (bounded at
	// the nearest concurrent join session, if any); the ring identities
	// needed to adopt it at commit time ride in the manifest, so a
	// restarted joiner can finish without re-asking anyone.
	seg := interval.Segment{Start: joinPt, Len: uint64(interval.Point(prep.End) - joinPt)}
	meta := map[string]string{
		"pred_id": u64s(prep.ID), "pred_point": u64s(prep.Point), "pred_addr": prep.Addr,
		"succ_id": u64s(prep.SuccID), "succ_addr": prep.SuccAddr,
	}
	rec, err := handoff.Begin(n.stagingDir(sess), sess, handoff.RoleJoin, seg, ownerAddr, meta)
	if err != nil {
		return err
	}
	return n.completeJoin(rec)
}

// resumeJoin resolves a join session recovered from disk against the
// sender's authoritative state. joined reports that the node is now part
// of the ring; (false, nil) means the session was aborted cleanly and the
// caller should join fresh.
func (n *Node) resumeJoin(rec *handoff.Receiver) (joined bool, err error) {
	st, serr := n.rpc(rec.Sender, request{Op: opHandStatus, Session: rec.ID})
	if serr != nil {
		// The sender is unreachable, so "who owns the range" cannot be
		// decided: aborting could demote items we own, resuming could
		// duplicate items the sender kept. Keep the staging untouched and
		// surface the ambiguity.
		return false, fmt.Errorf("p2p: recovered handoff session %x unresolved (sender %s unreachable): %w",
			rec.ID, rec.Sender, serr)
	}
	switch st.State {
	case handoff.StateStreaming.String():
		// The sender still holds the fenced session: continue where the
		// staged prefix ends.
		return true, n.completeJoin(rec)
	case handoff.StateCommitted.String():
		// The commit already landed — this node owns the range (the
		// sender deleted its copy); only the local finish was lost.
		if err := rec.Promote(n.data); err != nil {
			return false, err
		}
		n.adoptFromReceiver(rec)
		if err := rec.Finish(); err != nil {
			return false, err
		}
		n.serve()
		n.afterJoin()
		return true, nil
	default:
		// Unknown: the sender expired the session and kept the range.
		// Roll back (deleting any promoted items — the sender owns them)
		// and let the caller join fresh.
		return false, rec.Abort(n.data)
	}
}

// completeJoin runs stream → promote → commit → adopt for a prepared
// session (fresh or recovered).
func (n *Node) completeJoin(rec *handoff.Receiver) error {
	t0 := time.Now()
	if err := n.pullStream(rec); err != nil {
		var re *handoff.RemoteError
		if errors.As(err, &re) {
			// The sender refused the session (expired or aborted): it
			// kept the range; roll our side back.
			if aerr := rec.Abort(n.data); aerr != nil {
				return aerr
			}
			return fmt.Errorf("p2p: join handoff aborted by sender: %w", err)
		}
		// Transport failure after all retries, or a test-injected kill:
		// leave the staging session intact for recovery on restart.
		return err
	}
	// Promote before commit: the items become durable and live at their
	// future owner BEFORE the current owner is allowed to delete them.
	if err := rec.Promote(n.data); err != nil {
		return err
	}
	committed, definitive := n.resolveCommit(rec.Sender, rec.ID)
	if !definitive {
		// The sender is unreachable and the commit's fate unknown: keep
		// the staging session untouched so a restart (or retry) can
		// resolve it against the sender later.
		return fmt.Errorf("p2p: commit of join session %x unresolved (owner unreachable)", rec.ID)
	}
	if !committed {
		if aerr := rec.Abort(n.data); aerr != nil {
			return aerr
		}
		return fmt.Errorf("p2p: join session %x expired before commit; the owner kept the range", rec.ID)
	}
	if n.handoffCommitHook != nil {
		if herr := n.handoffCommitHook(); herr != nil {
			// Test-injected crash in the post-commit window: leave the
			// staging session exactly as a dying process would.
			return fmt.Errorf("%w: %v", errHookKill, herr)
		}
	}
	n.adoptFromReceiver(rec)
	if err := rec.Finish(); err != nil {
		return err
	}
	n.tel.Emitf("join.commit", "session %x: adopted [%v,+%d) from %s in %s",
		rec.ID, rec.Seg.Start, rec.Seg.Len, rec.Sender, time.Since(t0).Round(time.Millisecond))
	n.serve()
	n.afterJoin()
	return nil
}

// adoptFromReceiver installs the ring state a committed join session
// implies: the session range is the node's segment, the sender its
// predecessor, the sender's old successor its successor.
func (n *Node) adoptFromReceiver(rec *handoff.Receiver) {
	pred := NodeInfo{ID: metaU64(rec.Meta, "pred_id"), Point: metaU64(rec.Meta, "pred_point"), Addr: rec.Meta["pred_addr"]}
	succ := NodeInfo{ID: metaU64(rec.Meta, "succ_id"), Point: uint64(rec.Seg.End()), Addr: rec.Meta["succ_addr"]}
	n.mu.Lock()
	n.x = rec.Seg.Start
	n.pred = pred
	n.setEndSuccLocked(rec.Seg.End(), succ)
	n.setBackLocked([]NodeInfo{pred})
	n.ready = true
	// The adopted range arrived with no replica payloads anywhere (the
	// sender's replicas cover its OLD segment, not ours): mark it for
	// re-replication so the first stabilization round pushes it out.
	n.replDirty = n.repl.Enabled()
	n.mu.Unlock()
}

// afterJoin repoints the successor and announces the join (the post-
// transfer half of Algorithm Join). Everything here runs AFTER the
// commit, so failures must never surface as a failed join — the caller
// would tear down a node that already owns the range. All steps are
// best-effort with bounded retry; a stale successor pred pointer is only
// a stabilization hint, and the periodic Stabilize pass repairs whatever
// a lost message leaves behind.
func (n *Node) afterJoin() {
	succ := n.succInfo()
	if succ.Addr != n.addr {
		n.sendPatch(succ.Addr, request{Op: opSetPred, NewPoint: uint64(n.Point()), NewAddr: n.addr, NewID: n.id})
	}
	// Incrementally announce the join to the nodes whose backward tables
	// must now contain us: the covers of our segment's forward images.
	n.notifyImageCovers(false)
	_ = n.Stabilize()
}

// pullStream drives the receiving end of a session's chunk stream,
// reconnecting with the resume position after transport failures. A
// sender refusal (RemoteError) and a test-injected kill are terminal.
func (n *Node) pullStream(rec *handoff.Receiver) error {
	var lastErr error
	for attempt := 0; attempt < streamAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(streamRetryDelay)
		}
		err := n.pullOnce(rec)
		if err == nil {
			return nil
		}
		var re *handoff.RemoteError
		if errors.As(err, &re) || errors.Is(err, errHookKill) {
			return err
		}
		lastErr = err
	}
	return lastErr
}

func (n *Node) pullOnce(rec *handoff.Receiver) error {
	req := request{Op: opHandStream, Session: rec.ID}
	if p, key, ok, err := rec.ResumeAfter(); err != nil {
		return err
	} else if ok {
		req.FromPoint, req.FromKey, req.HasFrom = uint64(p), key, true
	}
	chunk := 0
	count, err := n.readStream(rec.Sender, &req, func(items []store.Item) error {
		if n.handoffChunkHook != nil {
			if herr := n.handoffChunkHook(chunk); herr != nil {
				return fmt.Errorf("%w: %v", errHookKill, herr)
			}
		}
		chunk++
		return rec.Apply(items)
	})
	n.met.handItemsIn.Add(int64(count))
	return err
}

// readStream opens the chunk stream req asks addr for and hands each chunk
// to apply, returning how many items arrived.
func (n *Node) readStream(addr string, req *request, apply func([]store.Item) error) (uint64, error) {
	conn, err := n.wire.openStream(addr, req)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	return handoff.ReadStream(bufio.NewReaderSize(conn, 64<<10), apply, func() {
		// Per-frame idle deadline, extended before every frame read: a
		// live stream can take arbitrarily long in total, but a sender
		// that goes silent mid-stream (crash, partition) must not pin
		// this receiver — and its staged range — forever. Generous (10×
		// the RPC deadline) so a sender merely slow under load is never
		// falsely abandoned; on expiry the read errors, the connection
		// drops, and the caller retries or rolls back.
		conn.SetReadDeadline(time.Now().Add(streamIdleTimeout(n.wire.timeout)))
	})
}

// streamIdleTimeout is the receiver's bound on sender silence BETWEEN
// stream frames — deliberately much larger than the per-RPC deadline
// (which covers dial + one request/response), because a frame's arrival
// time depends on the sender's store and load, but still finite so a
// dead sender cannot leak the receiver's staging session.
func streamIdleTimeout(rpc time.Duration) time.Duration { return 10 * rpc }

// Commit-ambiguity resolution: when a commit RPC fails in transport, the
// commit may have been applied with its response lost — or may still be
// in flight inside the sender. A pure status probe cannot settle the
// latter (a "streaming" answer can be overtaken by the delayed commit a
// moment later, and a receiver that rolled back on it would then lose
// the range from both sides), so the receiver asks the sender to ABORT:
// abort and commit serialize at the sender, making either answer final.
// The sender stays reachable for the whole receiver-silence TTL (a
// leaver blocks in Leave() until commit or expiry), so a handful of
// spaced attempts resolve every single-failure case; only a sender that
// crashed in exactly this window stays unknown.
const (
	commitProbeAttempts = 5
	commitProbeDelay    = 100 * time.Millisecond
)

// commitWaitAttempts bounds how long a receiver re-sends a commit the
// sender refused with Retry (an inner sub-range waiting for the outer
// session to resolve). 40 × 250ms rides out a slow outer stream; past it
// the receiver gives up and rolls back (the outer session most likely
// aborted, after which this commit can never be accepted).
const (
	commitWaitAttempts = 40
	commitWaitDelay    = 250 * time.Millisecond
)

// resolveCommit asks the sender to commit session id and pins down the
// outcome. definitive=false means the sender was unreachable for every
// attempt and the commit's fate is genuinely unknown; otherwise
// committed reports the authoritative answer (after a refusal, or after
// an explicit abort landed, the sender keeps the range — and no delayed
// commit can land afterwards).
func (n *Node) resolveCommit(sender string, id uint64) (committed, definitive bool) {
	for attempt := 0; attempt < commitWaitAttempts; attempt++ {
		resp, err := n.rpc(sender, request{Op: opHandCommit, Session: id})
		if err == nil {
			return true, true
		}
		if resp.Err == "" {
			// Transport failure: the request may still be in flight and
			// could land after any status probe — resolve by abort.
			return n.resolveByAbort(sender, id)
		}
		if !resp.Retry {
			return false, true // definitive remote refusal
		}
		time.Sleep(commitWaitDelay)
	}
	return false, true // the outer session never resolved; roll back
}

// resolveByAbort settles a transport-ambiguous commit by asking the
// sender to abort the session: abort and commit serialize at the sender,
// so either answer is final.
func (n *Node) resolveByAbort(sender string, id uint64) (committed, definitive bool) {
	for attempt := 0; attempt < commitProbeAttempts; attempt++ {
		time.Sleep(commitProbeDelay)
		st, serr := n.rpc(sender, request{Op: opHandAbort, Session: id})
		if serr == nil {
			return st.State == handoff.StateCommitted.String(), true
		}
	}
	return false, false
}

// --- sender side ---

// handleHandPrepare opens a join session: the upper part of this node's
// segment is fenced and registered, but ownership does not move — that
// happens at commit. The response carries the ring identities the joiner
// will adopt.
//
// Concurrent disjoint joins: the prepared range is bounded at the start
// of the nearest already-streaming join session after p, so a second
// joiner splitting the same owner gets the disjoint sub-range [p, bound)
// — and that bounding session's joiner as its successor — instead of a
// refusal. Only a p inside an already-fenced range still refuses (the
// session registry's overlap check): one range, one mover.
//
// An inbound leave absorption does NOT refuse the prepare: the session is
// stamped with the current ring version, and the commit path validates
// the stamp (and the boundary geometry) before flipping — so a join may
// stream concurrently with an absorption, and whichever publishes its
// pointer update second detects the other and resolves cleanly instead of
// both being serialized up front.
func (n *Node) handleHandPrepare(req request) response {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.leaving {
		return response{Err: "node is leaving; retry via another node"}
	}
	if n.absorbExtended {
		return response{Err: "leave absorption resolving; retry"}
	}
	p := interval.Point(req.NewPoint)
	if !n.segmentLocked().Contains(p) || p == n.x {
		return response{Err: fmt.Sprintf("join point %v outside segment", p)}
	}
	upper := interval.Segment{Start: p, Len: uint64(n.end - p)}
	if n.x == n.end { // full circle: the joiner takes [p, x)
		upper = interval.Segment{Start: p, Len: uint64(n.x - p)}
	}
	// The joiner's ring successor: by default this node's successor, but
	// if an active join session starts inside [p, end) the new joiner's
	// range stops there and that session's joiner becomes its successor.
	succID, succAddr := n.succ.ID, n.succ.Addr
	if n.x == n.end { // singleton network: this node is its own successor
		succID, succAddr = n.id, n.addr
	}
	for _, s := range n.sessions.Streaming() {
		meta, ok := s.Meta.(sessMeta)
		if !ok || meta.kind != handoff.RoleJoin {
			continue
		}
		if d := uint64(s.Seg.Start - p); d > 0 && d < upper.Len {
			upper.Len = d
			succID, succAddr = meta.joiner.ID, meta.joiner.Addr
		}
	}
	joiner := NodeInfo{ID: req.NewID, Point: req.NewPoint, Addr: req.NewAddr}
	meta := sessMeta{kind: handoff.RoleJoin, joiner: joiner, ringVer: n.ringVer.Load()}
	if _, err := n.sessions.Prepare(req.Session, upper, req.NewAddr, meta); err != nil {
		return response{Err: err.Error()}
	}
	n.met.handPrepares.Inc()
	n.jrn.Record(journal.KindHandPrepare, meta.ringVer, 0,
		req.Session, uint64(upper.Start), upper.Len)
	n.tel.Emitf("handoff.prepare", "session %x: fenced [%v,+%d) for joiner %s",
		req.Session, upper.Start, upper.Len, req.NewAddr)
	return response{
		OK: true,
		ID: n.id, Point: uint64(n.x), Addr: n.addr,
		End: uint64(upper.End()), SuccID: succID, SuccAddr: succAddr,
	}
}

// handleStream serves a session's chunk stream on the raw connection: a
// store cursor walks the fenced range (optionally resumed strictly after
// the receiver's last staged position) in O(chunk) memory, extending the
// write deadline and the session TTL per frame.
func (n *Node) handleStream(req request, conn net.Conn) {
	writeDeadline := func() { conn.SetWriteDeadline(time.Now().Add(n.wire.timeout)) }
	sess, ok := n.sessions.Get(req.Session)
	if !ok {
		writeDeadline()
		conn.Write(handoff.EncodeError("unknown session"))
		return
	}
	cur := n.data.Cursor(sess.Seg)
	defer cur.Close()
	if req.HasFrom {
		cur.Seek(interval.Point(req.FromPoint), req.FromKey)
	}
	w := &deadlineWriter{conn: conn, timeout: n.wire.timeout}
	// A failed write just drops the connection: the receiver reconnects
	// and resumes; the session stays alive until commit or TTL expiry.
	count, sum, _ := handoff.Stream(w, cur, n.chunkBytes, func() { n.sessions.Touch(sess) })
	n.met.handBytesOut.Add(w.wrote)
	n.jrn.Record(journal.KindHandStream, n.ringVer.Load(), 0,
		req.Session, count, sum)
}

// deadlineWriter extends the connection's write deadline before every
// write, so a stream is bounded per frame rather than in total.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
	wrote   int64 // bytes the connection accepted so far
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	n, err := w.conn.Write(p)
	w.wrote += int64(n)
	return n, err
}

// handleHandCommit is the ownership flip — the single decision point of a
// transfer. Under the node mutex: mark the session committed, durably
// record the decision, delete the moved range from the local store, and
// (for a join) repoint end/succ at the joiner. After this response the
// receiver is the owner; before it, this node is. There is no state in
// which both or neither own the range.
//
// The ordering matters: the commit decision comes FIRST, so a refusal
// (expired session) leaves the items untouched on this side — the old
// delete-then-commit order could delete here and then refuse, making the
// receiver roll back too and lose the range from both sides. A delete
// failure after the decision leaves unreachable duplicates in a range we
// no longer own — the recoverable direction.
func (n *Node) handleHandCommit(req request) response {
	n.mu.Lock()
	sess, ok := n.sessions.Get(req.Session)
	if !ok {
		// Idempotent re-commit: a receiver whose first commit RPC lost
		// its response (or a restarted receiver replaying it) must read
		// success, not a refusal it would roll back on — the range is
		// already durably theirs.
		if n.committedLocked(req.Session) {
			resp := response{OK: true, ID: n.id, Point: uint64(n.x), Addr: n.addr, End: uint64(n.end)}
			n.mu.Unlock()
			return resp
		}
		n.mu.Unlock()
		return response{Err: "unknown or expired session"}
	}
	meta, _ := sess.Meta.(sessMeta)
	if meta.kind == handoff.RoleJoin && sess.Seg.End() != n.end {
		if meta.ringVer != n.ringVer.Load() && !n.tailSessionLocked() {
			// The boundary moved since this session was prepared (a leave
			// absorption extended the segment past the session's end) and
			// no active session ends at the new boundary — no chain of
			// commits can ever make this range the tail again. Flipping
			// would punch a hole: the joiner's range [Start, End) plus our
			// remaining [x, Start) would strand the absorbed [End, end).
			// Refuse definitively; the joiner rolls back and re-joins
			// against the extended segment.
			n.mu.Unlock()
			return response{Err: "segment boundary moved since prepare; rejoin"}
		}
		// Commit-in-order: concurrent join sessions stream freely, but
		// only the OUTERMOST unresolved sub-range — the one ending at
		// the current segment end — may flip ownership. An inner range
		// committing while the outer one is still streaming would, if
		// the outer later aborted, shrink the segment past a range the
		// owner keeps: a hole no stabilization can repair (and a
		// successor pointer at a joiner that never joined). The inner
		// receiver retries until the outer session commits (then its own
		// end matches) or aborts (then this session can never commit and
		// the receiver gives up and rolls back).
		n.mu.Unlock()
		return response{Err: "outer handoff session unresolved; retry commit", Retry: true}
	}
	if _, ok := n.sessions.Commit(req.Session); !ok {
		n.mu.Unlock()
		return response{Err: "session expired at commit"}
	}
	if n.commits != nil {
		// Durable before anything outside this critical section can read
		// "committed": status and abort handlers serialize on n.mu, and
		// the response is emitted after this returns — so once any
		// observer sees the commit, a crash cannot forget it (dual-crash
		// corner). A crash between the registry flip above and this
		// record is indistinguishable from one just before the flip:
		// nobody observed it and nothing was deleted yet. A failed write
		// only degrades to the old in-memory-registry behaviour.
		_ = n.commits.Record(req.Session)
	}
	if meta.kind == handoff.RoleJoin {
		// The commit-in-order gate above guarantees this session's range
		// is exactly the tail of the current segment, so adopting the
		// joiner always shrinks end from Seg.End() to Seg.Start — there
		// is no out-of-order case left to guard.
		n.setEndSuccLocked(sess.Seg.Start, meta.joiner)
	}
	// RoleLeave: nothing to repoint here — the leaver is departing and
	// its blocked Leave() call wakes on the session's done channel.
	isJoin := uint64(0)
	if meta.kind == handoff.RoleJoin {
		isJoin = 1
	}
	n.jrn.Record(journal.KindHandCommit, n.ringVer.Load(), 0,
		req.Session, uint64(sess.Seg.Start), isJoin)
	resp := response{OK: true, ID: n.id, Point: uint64(n.x), Addr: n.addr, End: uint64(sess.Seg.End())}
	n.mu.Unlock()
	n.met.handCommits.Inc()
	n.tel.Emitf("handoff.commit", "session %x (%s): released [%v,+%d)",
		req.Session, meta.kind, sess.Seg.Start, sess.Seg.Len)

	// The durable range delete runs outside the node mutex: on a WAL
	// store it can trigger compaction, and serving lookups meanwhile is
	// safe — the committed range is no longer this node's segment (a
	// leaver refuses item ops outright), so nothing reads or writes it
	// here. A delete failure leaves unreachable duplicates in a range we
	// no longer own — the recoverable direction; the old delete-then-
	// commit order could instead delete here, then refuse the commit and
	// make the receiver roll back too, losing the range from both sides.
	// (A departing leaver's Close waits out this handler's goroutine, so
	// the store cannot close under the delete.)
	delSeg := sess.Seg
	if meta.kind == handoff.RoleLeave {
		// The whole store departs with the node, not just the nominal
		// segment — a WAL store must not replay anything on a later
		// restart at this directory.
		delSeg = interval.FullCircle
	}
	_ = n.data.DeleteRange(delSeg)
	return resp
}

// tailSessionLocked reports whether some streaming join session ends
// exactly at the current segment end (mu held). While one does, an
// inner session's mismatched commit is a transient ordering matter —
// the chain of outer commits can still make it the tail — so it must
// retry rather than fail.
func (n *Node) tailSessionLocked() bool {
	for _, s := range n.sessions.Streaming() {
		meta, ok := s.Meta.(sessMeta)
		if ok && meta.kind == handoff.RoleJoin && s.Seg.End() == n.end {
			return true
		}
	}
	return false
}

// committedLocked reports whether the session is known committed, by the
// in-memory registry or the durable commit log (mu held).
func (n *Node) committedLocked(id uint64) bool {
	if n.sessions.Status(id) == handoff.StateCommitted {
		return true
	}
	return n.commits != nil && n.commits.Contains(id)
}

// handleHandAbort settles an ambiguous commit for the receiver: abort
// the session unless it already committed, and say which happened. Abort
// and commit serialize on the node mutex, so the answer is final — after
// an "unknown" reply a delayed commit RPC can no longer land (its session
// is gone), and after a "committed" reply the receiver owns the range.
func (n *Node) handleHandAbort(req request) response {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.committedLocked(req.Session) {
		return response{OK: true, State: handoff.StateCommitted.String()}
	}
	n.sessions.Abort(req.Session)
	n.met.handAborts.Inc()
	n.jrn.Record(journal.KindHandAbort, n.ringVer.Load(), 0, req.Session, 0, 0)
	n.tel.Emitf("handoff.abort", "session %x: aborted by receiver probe", req.Session)
	return response{OK: true, State: handoff.StateUnknown.String()}
}

// handleHandStatus answers a receiver's crash-recovery probe. The
// in-memory registry is authoritative while this process lives; after a
// restart the durable commit log still answers for committed sessions.
// It takes the node mutex for the whole read so a probe cannot observe
// the instant between a commit's registry flip and its durable record.
func (n *Node) handleHandStatus(req request) response {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.sessions.Status(req.Session)
	if n.committedLocked(req.Session) {
		st = handoff.StateCommitted
	}
	return response{OK: true, State: st.String()}
}

// --- leave ---

// Leave gracefully exits: offer the segment to the ring predecessor, let
// it pull the item stream, and shut down once it commits. Ownership flips
// at the commit this node's own session registry serializes — a crash on
// either side before that leaves this node the owner (and still serving
// after an abort); a crash after it leaves the predecessor the owner with
// every item durably promoted.
func (n *Node) Leave() error {
	n.mu.Lock()
	if n.leaving {
		n.mu.Unlock()
		return fmt.Errorf("p2p: leave already in progress")
	}
	if n.sessions.Active() > 0 || n.absorbing > 0 {
		// A join is mid-transfer out of our segment (its session holds a
		// fence a leave stream would violate), or an inbound absorption
		// is still promoting items our leave stream would miss and our
		// commit's store clear would destroy.
		n.mu.Unlock()
		return fmt.Errorf("p2p: handoff in progress; retry")
	}
	pred, succ := n.pred, n.succ
	end := n.end
	if pred.Addr == n.addr {
		// Last node: there is nowhere to hand the items — keep the store
		// intact (a WAL store retains them for a future restart) and stop.
		n.mu.Unlock()
		n.Close()
		return nil
	}
	seg := n.segmentLocked()
	sessID := (n.id ^ uint64(time.Now().UnixNano())) | 1
	sess, err := n.sessions.Prepare(sessID, seg, pred.Addr, sessMeta{kind: handoff.RoleLeave})
	if err != nil {
		n.mu.Unlock()
		return err
	}
	n.met.handPrepares.Inc()
	n.leaving = true // refuse item ops: the store must match the stream
	n.mu.Unlock()
	n.tel.Emitf("leave.offer", "session %x: offering [%v,+%d) to predecessor %s",
		sessID, seg.Start, seg.Len, pred.Addr)
	// Tell the covers of our forward images to drop us from their backward
	// tables before the segment moves (with ack + bounded retry; routing
	// falls back to ring hops for any entry a truly lost patch leaves
	// stale, until Stabilize repairs it).
	n.notifyImageCovers(true)
	offer := request{Op: opLeave, Session: sessID, SrcAddr: n.addr,
		SegStart: uint64(seg.Start), SegLen: seg.Len,
		Target: uint64(end), NewAddr: succ.Addr, NewID: succ.ID, NewPoint: uint64(succ.Point)}
	if _, err := n.rpc(pred.Addr, offer); err != nil {
		n.sessions.Abort(sessID)
		n.mu.Lock()
		n.leaving = false
		n.mu.Unlock()
		return err
	}
	// The predecessor accepted and pulls the stream; block until it
	// commits or the session expires (expiry is lazy, so poll it).
	for done := false; !done; {
		select {
		case <-sess.Done():
			done = true
		case <-time.After(n.handoffTTL / 2):
			n.sessions.Status(sessID) // lazily expire an abandoned session
		}
	}
	if sess.State() != handoff.StateCommitted {
		n.mu.Lock()
		n.leaving = false
		n.mu.Unlock()
		n.tel.Emitf("leave.fail", "session %x: predecessor never committed; resuming service", sessID)
		return fmt.Errorf("p2p: leave handoff did not commit (predecessor failed mid-transfer); resuming service")
	}
	n.tel.Emitf("leave.commit", "session %x: segment absorbed by %s; departing", sessID, pred.Addr)
	// Committed: the predecessor owns segment and items, and the commit
	// handler already cleared the local store (durably, on a WAL store).
	// Everything further is best-effort cleanup and must not surface as a
	// failed leave — the caller would treat a departed, committed node as
	// still alive. A lost setpred leaves the successor's pred pointer
	// stale, which is only a stabilization hint and is rewritten by the
	// next join in that gap.
	if succ.Addr != n.addr {
		n.sendPatch(succ.Addr, request{Op: opSetPred, NewPoint: pred.Point, NewAddr: pred.Addr, NewID: pred.ID})
	}
	n.Close()
	return nil
}

// handleLeave accepts a leave offer (§2.1: "the predecessor on the ring
// enlarges its segment") and pulls the handoff session asynchronously —
// the offer RPC stays fast no matter how many items the leaver holds.
func (n *Node) handleLeave(req request) response {
	n.mu.Lock()
	if n.leaving {
		// We are handing our own store off; absorbing now would park the
		// items in a store about to be cleared. The leaver aborts and
		// retries once our own leave resolves.
		n.mu.Unlock()
		return response{Err: "node is leaving; retry"}
	}
	if n.absorbing > 0 {
		// One absorption at a time: two concurrent extensions would race
		// to rewrite end to different targets. Outbound JOIN sessions, by
		// contrast, no longer exclude an absorption — their streams
		// interleave freely, and absorbLeave validates the boundary under
		// the mutex before publishing its extension.
		n.mu.Unlock()
		return response{Err: "absorption in progress; retry"}
	}
	if req.SrcAddr != n.succ.Addr {
		n.mu.Unlock()
		return response{Err: "leave offer from a node that is not my successor"}
	}
	n.absorbing++
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer func() {
			n.mu.Lock()
			n.absorbing--
			n.mu.Unlock()
		}()
		n.absorbLeave(req)
	}()
	return response{OK: true}
}

// absorbLeave is the predecessor's receiving side of a leave: pull the
// stream into staging, promote, extend the ring pointers, and commit at
// the leaver. The pointers extend before the commit RPC so that the
// moment the leaver's Leave() returns, this node already answers for the
// absorbed range; if the commit then turns out refused (the leaver
// expired the session in that instant), the extension and promotion are
// rolled back and the leaver resumes serving.
//
// Join streams run concurrently with the pull: the extension validates,
// under the mutex, that this node's segment still ends at the leaver's
// start — if an interleaved join committed the tail meanwhile, the
// leaver is no longer the ring successor and the absorption aborts
// itself at the leaver instead of swallowing the joiner's range.
func (n *Node) absorbLeave(req request) {
	seg := interval.Segment{Start: interval.Point(req.SegStart), Len: req.SegLen}
	rec, err := handoff.Begin(n.stagingDir(req.Session), req.Session, handoff.RoleLeave, seg, req.SrcAddr, nil)
	if err != nil {
		return
	}
	if err := n.pullStream(rec); err != nil {
		rec.Abort(n.data)
		return
	}
	if err := rec.Promote(n.data); err != nil {
		rec.Abort(n.data)
		return
	}
	n.mu.Lock()
	if n.end != seg.Start {
		// A join committed while the stream was in flight: the segment
		// tail now belongs to the joiner, the leaver is no longer this
		// node's ring successor, and extending end over the joiner's range
		// would swallow it. Abort authoritatively at the leaver (abort and
		// commit serialize there, so its Leave() resolves as failed and it
		// resumes serving — its next attempt goes to its new predecessor,
		// the joiner) and roll the promotion back.
		n.mu.Unlock()
		_, _ = n.rpc(req.SrcAddr, request{Op: opHandAbort, Session: req.Session})
		rec.Abort(n.data)
		return
	}
	oldEnd, oldSucc := n.end, n.succ
	n.setEndSuccLocked(interval.Point(req.Target), NodeInfo{ID: req.NewID, Point: req.NewPoint, Addr: req.NewAddr})
	n.absorbExtended = true
	n.mu.Unlock()
	committed, definitive := n.resolveCommit(req.SrcAddr, req.Session)
	n.mu.Lock()
	n.absorbExtended = false
	if definitive && !committed {
		// The leaver refused (expired session, or still streaming — the
		// commit never landed) and authoritatively kept its items: roll
		// the pointer extension and the promotion back; the leaver's
		// Leave() times out and resumes serving.
		n.setEndSuccLocked(oldEnd, oldSucc)
	}
	n.mu.Unlock()
	switch {
	case committed:
		rec.Finish()
		// The absorbed range's replicas were placed by the DEPARTED node
		// for its own successor chain; re-replicate for ours.
		n.mu.Lock()
		n.replDirty = n.repl.Enabled()
		n.mu.Unlock()
		n.tel.Emitf("absorb.commit", "session %x: absorbed leaver %s's [%v,+%d)",
			req.Session, req.SrcAddr, seg.Start, seg.Len)
	case definitive:
		rec.Abort(n.data)
		n.tel.Emitf("absorb.abort", "session %x: leaver %s kept its range", req.Session, req.SrcAddr)
	default:
		// The leaver is unreachable and the commit's fate unknown. If it
		// landed, the leaver durably cleared its store before going away
		// — our promoted copies are the ONLY copies, so aborting here
		// would destroy the segment. Keep the items and the extended
		// pointers: the lossy direction is unrecoverable, the duplicate
		// direction is not (a leaver that in fact crashed un-committed
		// re-serves its WAL on restart, and the stabilization pass
		// re-adopts it as successor, shadowing our duplicates).
		rec.Finish()
	}
}

// --- staging recovery ---

// stagingDir returns the disk staging directory for an inbound session,
// or "" (memory staging) when the node's store is not disk-backed — a
// crash then loses the staged items, but it loses the live items too, so
// the session is simply gone, not half-applied.
func (n *Node) stagingDir(id uint64) string {
	lg, ok := n.data.(*store.Log)
	if !ok {
		return ""
	}
	return fmt.Sprintf("%s.handoff-%016x", lg.Dir(), id)
}

// recoverStaging scans for staging sessions a previous process left
// beside this node's WAL directory. A join session is kept for StartJoin
// to resolve against the sender; a leave session that had reached
// promotion is finished (if our commit reached the leaver, these items
// exist nowhere else; if it did not, the duplicates are overwritten by
// the authoritative copies at the next absorb); anything else is debris
// whose sender still owns the range, and is discarded.
func (n *Node) recoverStaging() error {
	lg, ok := n.data.(*store.Log)
	if !ok {
		return nil
	}
	dirs, err := filepath.Glob(lg.Dir() + ".handoff-*")
	if err != nil {
		return err
	}
	for _, dir := range dirs {
		rec, err := handoff.Recover(dir)
		if err != nil {
			os.RemoveAll(dir) // crashed before the manifest write: nothing staged
			continue
		}
		switch {
		case rec.Role == handoff.RoleJoin && n.recovered == nil:
			n.recovered = rec
		case rec.Role == handoff.RoleLeave && rec.State() == handoff.StagePromoting:
			if err := rec.Promote(n.data); err != nil {
				return err
			}
			if err := rec.Finish(); err != nil {
				return err
			}
		default:
			if err := rec.Abort(nil); err != nil {
				return err
			}
		}
	}
	return nil
}
