package p2p

// This file wires the internal/handoff session protocol into the node:
// Join and Leave both move their segment's items as a streaming, two-phase
// (prepare → stream → commit) transfer. Ownership — ring pointers on the
// sender plus the sender-side range delete — flips only at commit, and the
// receiver promotes its durably staged items into its live store BEFORE
// asking for that commit, so a crash or disconnect at any point leaves
// exactly one owner and every item in at least one durable store.
//
// Who decides what: internal/handoff owns the protocol order on both ends
// — the receiver's stream → promote → publish → commit sequence with its
// reconnects and commit-ambiguity resolution (Receiver.Run), the sender's
// fence, TTL, commit decision and its durable record (Sessions). This file
// keeps the ring decisions: which range a prepare fences and who succeeds
// it, whether a commit may flip the pointers now, what an absorbing
// predecessor publishes before the leaver's commit, and what each receiver
// keeps or rolls back per outcome.
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
// manifest and runs the session again: Receiver.Run resumes the stream
// after the staged prefix, or — the owner refusing it — asks the owner to
// abort, which answers "committed" (promote and adopt) or not (roll back
// and join fresh).

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"condisc/internal/continuous"
	"condisc/internal/handoff"
	"condisc/internal/interval"
	"condisc/internal/journal"
	"condisc/internal/store"
)

// joinAttempts bounds the lookup/prepare retries of StartJoin: each
// refusal (a contested midpoint mid-handoff to a concurrent joiner, an
// owner absorbing a leave, a route through a still-joining node) retries
// at a fresh uniformly-sampled point.
const (
	joinAttempts   = 8
	joinRetryDelay = 50 * time.Millisecond
)

// --- joiner side ---

// StartJoin joins an existing network through the bootstrap address,
// implementing Algorithm Join of §2.1 with the Improved Single Choice ID
// rule of §4: sample a random z, look up its owner, and take the middle of
// that owner's segment. The item transfer is a resumable handoff session;
// if this node crashed mid-join and was restarted on the same address and
// data directory, the recovered session runs to an outcome first, and a
// fresh join follows only if the owner kept the range.
func (n *Node) StartJoin(bootstrap string, rng *rand.Rand) error {
	// Serve (fast refusals, see handle) from the first moment other nodes
	// can learn this address — a concurrent joiner may be told we are its
	// successor before our own join completes.
	n.serve()
	if rec := n.recovered; rec != nil {
		n.recovered = nil
		if out, err := n.completeJoin(rec); out != handoff.Refused {
			return err
		}
		// The owner kept the range; the rollback is done and a fresh join
		// follows.
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
		// lookupRetry resolves p's owner. A refused lookup (a route
		// through a node that is itself mid-join answers "joining; retry")
		// is as transient as a refused prepare: it burns an attempt (again)
		// instead of failing the join, until the attempts run out.
		lookupRetry := func(p interval.Point) (owner response, again bool, err error) {
			owner, err = n.wire.call(bootstrap, &request{Op: opLookup, Target: uint64(p)})
			if err == nil || attempt >= joinAttempts-1 {
				return owner, false, err
			}
			time.Sleep(joinRetryDelay)
			return owner, true, nil
		}
		z := interval.Point(rng.Uint64())
		owner, again, err := lookupRetry(z)
		if err != nil {
			return err
		}
		if again {
			continue
		}
		p := interval.Point(owner.Point) + interval.Point(uint64(owner.End-owner.Point)/2)
		if attempt > 0 {
			p = z
		}
		if uint64(p) == owner.Point { // degenerate tiny segment; fall back
			p = interval.Point(rng.Uint64())
			if owner, again, err = lookupRetry(p); err != nil {
				return err
			}
			if again || uint64(p) == owner.Point {
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
	rec, err := handoff.Begin(n.walDir(), handoff.Receiver{
		ID: sess, Role: handoff.RoleJoin, Seg: seg, Sender: ownerAddr,
		Pred: handoff.Peer{ID: prep.ID, Point: prep.Point, Addr: prep.Addr},
		Succ: handoff.Peer{ID: prep.SuccID, Point: prep.End, Addr: prep.SuccAddr},
	})
	if err != nil {
		return err
	}
	_, err = n.completeJoin(rec)
	return err
}

// completeJoin runs a prepared session (fresh or recovered) and maps its
// outcome onto the ring: adopt the range, roll back, or — with no final
// answer — keep everything for a restart to resolve.
func (n *Node) completeJoin(rec *handoff.Receiver) (handoff.Outcome, error) {
	t0 := time.Now()
	switch out, err := rec.Run(n.senderWire(rec.Sender, rec.ID), n.data, nil); out {
	case handoff.Refused:
		// The owner kept the range (it expired or aborted the session, or
		// refused the commit): roll our side back.
		if aerr := n.rollBack(rec); aerr != nil {
			return out, aerr
		}
		return out, fmt.Errorf("p2p: join session %x refused; the owner kept the range: %w", rec.ID, err)
	case handoff.Unresolved:
		// Transport failure after all retries, a killed receiver, or a
		// commit whose fate the unreachable owner could not tell: leave
		// the staging session untouched so a restart (or retry) can
		// resolve it against the owner later.
		return out, fmt.Errorf("p2p: join session %x unresolved: %w", rec.ID, err)
	}
	if err := n.adopt(rec); err != nil {
		return handoff.Committed, err
	}
	n.tel.Emitf("join.commit", "session %x: adopted [%v,+%d) from %s in %s",
		rec.ID, rec.Seg.Start, rec.Seg.Len, rec.Sender, time.Since(t0).Round(time.Millisecond))
	n.afterJoin()
	return handoff.Committed, nil
}

// adopt installs the ring state a committed join session implies — the
// session range is the node's segment, the sender its predecessor, the
// sender's old successor its successor — and drops the staging session.
func (n *Node) adopt(rec *handoff.Receiver) error {
	// The adopted range arrived with no replica payloads anywhere (the
	// sender's replicas cover its OLD segment, not ours): mark it for
	// re-replication so the first stabilization round pushes it out.
	n.transit(func(c *ringCore) (*ringCore, error) {
		return c.adopt(rec.Seg.Start, rec.Seg.End(), NodeInfo(rec.Pred), NodeInfo(rec.Succ), n.repl.Enabled())
	})
	return rec.Finish()
}

// rollBack undoes the receiving side of a session whose range stays with
// the sender. It tells the sender first, best-effort: abort and commit
// serialize there, so a sender still holding the session — a leaver
// blocked in Leave() and refusing item requests, an owner keeping the
// range fenced — resolves it now instead of at its TTL. Then the staging
// goes, and with it whatever was already promoted.
func (n *Node) rollBack(rec *handoff.Receiver) error {
	_, _ = n.senderWire(rec.Sender, rec.ID).Abort()
	return rec.Abort(n.data)
}

// afterJoin starts serving, repoints the successor and announces the join
// (the post-transfer half of Algorithm Join). Everything here runs AFTER
// the commit, so failures must never surface as a failed join — the caller
// would tear down a node that already owns the range. All steps are
// best-effort with bounded retry; a stale successor pred pointer is only
// a stabilization hint, and the periodic Stabilize pass repairs whatever
// a lost message leaves behind.
func (n *Node) afterJoin() {
	n.serve()
	if succ := n.core.Load().succ; succ.Addr != n.addr {
		n.sendPatch(succ.Addr, request{Op: opSetPred, NewPoint: uint64(n.Point()), NewAddr: n.addr, NewID: n.id})
	}
	// Fill our own backward table first, so the image lookups below route
	// on it instead of through the predecessor and ring-forward fallback.
	_ = n.Stabilize()
	// Incrementally announce the join to the nodes whose backward tables
	// must now contain us: the covers of our segment's forward images.
	n.notifyImageCovers(false)
}

// sessionWire is this node's line to the sender of one inbound session:
// handoff.Wire over the control RPCs and the opHandStream connection.
type sessionWire struct {
	n    *Node
	addr string
	id   uint64
}

// senderWire is the line to session id's sender at addr, wrapped by the
// test seam when one is set.
func (n *Node) senderWire(addr string, id uint64) handoff.Wire {
	var w handoff.Wire = sessionWire{n, addr, id}
	if n.wrapWire != nil {
		w = n.wrapWire(w)
	}
	return w
}

func (w sessionWire) Stream(resume bool, p interval.Point, key string, apply func([]store.Item) error) error {
	req := request{Op: opHandStream, Session: w.id, FromPoint: uint64(p), FromKey: key, HasFrom: resume}
	count, err := w.n.readStream(w.addr, &req, apply)
	w.n.met.handItemsIn.Add(int64(count))
	return err
}

func (w sessionWire) Commit() (retry bool, err error) {
	resp, err := w.n.rpc(w.addr, request{Op: opHandCommit, Session: w.id})
	if err != nil && resp.Err != "" {
		return resp.Retry, &handoff.RemoteError{Msg: resp.Err}
	}
	return false, err
}

func (w sessionWire) Abort() (committed bool, err error) {
	st, err := w.n.rpc(w.addr, request{Op: opHandAbort, Session: w.id})
	return st.State == handoff.StateCommitted.String(), err
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

// --- sender side ---

// handleHandPrepare opens a join session: the range prepareJoin picks is
// fenced and registered, but ownership does not move — that happens at
// commit. The response carries the ring identities the joiner will adopt.
// A second joiner splitting the same owner gets a disjoint sub-range
// instead of a refusal; only a p inside an already-fenced range still
// refuses (the session registry's overlap check): one range, one mover.
func (n *Node) handleHandPrepare(req request) response {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := n.core.Load()
	upper, succ, err := c.prepareJoin(interval.Point(req.NewPoint), n.sessions.Streaming())
	if err != nil {
		return response{Err: err.Error()}
	}
	if _, err := n.sessions.Prepare(req.Session, upper, handoff.RoleJoin, handoff.Peer(req.peer()), c.ringVer); err != nil {
		return response{Err: err.Error()}
	}
	n.met.handPrepares.Inc()
	n.jrn.Record(journal.KindHandPrepare, c.ringVer, 0,
		req.Session, uint64(upper.Start), upper.Len)
	n.tel.Emitf("handoff.prepare", "session %x: fenced [%v,+%d) for joiner %s",
		req.Session, upper.Start, upper.Len, req.NewAddr)
	return response{
		OK: true,
		ID: n.id, Point: uint64(c.x), Addr: n.addr,
		End: uint64(upper.End()), SuccID: succ.ID, SuccAddr: succ.Addr,
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
	count, _, _ := handoff.Stream(w, cur, n.chunkBytes, func() { n.sessions.Touch(sess) })
	n.met.handBytesOut.Add(w.wrote)
	n.jrn.Record(journal.KindHandStream, n.core.Load().ringVer, 0,
		req.Session, count, uint64(w.wrote))
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
// transfer. Under the writer lock: commit the session (Sessions.Commit
// marks it and durably records the decision before anyone can read it) and
// (for a join) repoint end/succ at the joiner; then delete the moved range
// from the local store. After this response the receiver is the owner;
// before it, this node is. The decision comes first, so a refusal leaves
// the items untouched here; a delete failure after it leaves unreachable
// duplicates in a range we no longer own — the recoverable direction.
func (n *Node) handleHandCommit(req request) response {
	n.mu.Lock()
	c := n.core.Load()
	sess, ok := n.sessions.Get(req.Session)
	if !ok {
		// Idempotent re-commit: a receiver that lost the first response, or
		// replays it after a restart, must read success, not roll back.
		if n.sessions.Status(req.Session) == handoff.StateCommitted {
			resp := response{OK: true, ID: n.id, Point: uint64(c.x), Addr: n.addr, End: uint64(c.end)}
			n.mu.Unlock()
			return resp
		}
		n.mu.Unlock()
		return response{Err: "unknown or expired session"}
	}
	// A leave session repoints nothing here: the leaver is departing, and
	// its blocked Leave() wakes on the session's done channel.
	isJoin, next := sess.Role == handoff.RoleJoin, c
	if isJoin {
		var err error
		if next, err = c.commitJoin(sess, n.sessions.Streaming()); err != nil {
			// An inner range retries until the outer session commits or
			// aborts; a range the boundary moved past rolls back and re-joins.
			n.mu.Unlock()
			return response{Err: err.Error(), Retry: errors.Is(err, errOuterPending)}
		}
	}
	_, ok, logErr := n.sessions.Commit(req.Session)
	if !ok {
		n.mu.Unlock()
		return response{Err: "session expired at commit"}
	}
	if logErr != nil {
		n.tel.Emitf("handoff.commitlog", "session %x committed in memory only: %v", req.Session, logErr)
	}
	joinFlag := uint64(0)
	if isJoin {
		n.publishLocked(next)
		joinFlag = 1
	}
	n.jrn.Record(journal.KindHandCommit, next.ringVer, 0,
		req.Session, uint64(sess.Seg.Start), joinFlag)
	resp := response{OK: true, ID: n.id, Point: uint64(c.x), Addr: n.addr, End: uint64(sess.Seg.End())}
	n.mu.Unlock()
	n.met.handCommits.Inc()
	n.tel.Emitf("handoff.commit", "session %x (%s): released [%v,+%d)",
		req.Session, sess.Role, sess.Seg.Start, sess.Seg.Len)

	// The durable range delete runs outside the lock (on a WAL store it can
	// compact): an item op re-checks ownership under the read side, so none
	// touches the range once the flip is published. A departing leaver's
	// Close waits out this handler, so the store cannot close under it.
	delSeg := sess.Seg
	if !isJoin {
		// The whole store departs with the node, not just the nominal
		// segment — a WAL store must not replay anything on a later
		// restart at this directory.
		delSeg = interval.FullCircle
	}
	_ = n.data.DeleteRange(delSeg)
	return resp
}

// handleHandAbort settles an ambiguous commit for the receiver: abort
// the session unless it already committed, and say which happened. Abort
// and commit serialize on the node mutex, so the answer is final — after
// an "unknown" reply a delayed commit RPC can no longer land (its session
// is gone), and after a "committed" reply the receiver owns the range.
func (n *Node) handleHandAbort(req request) response {
	n.mu.Lock()
	defer n.mu.Unlock()
	final, aborted := n.sessions.Abort(req.Session)
	if aborted {
		n.met.handAborts.Inc()
		n.jrn.Record(journal.KindHandAbort, n.core.Load().ringVer, 0, req.Session, 0, 0)
		n.tel.Emitf("handoff.abort", "session %x: aborted by its receiver", req.Session)
	}
	return response{OK: true, State: final.String()}
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
	c := n.core.Load()
	next, err := c.leave(len(n.sessions.Streaming()) > 0)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	pred, succ := c.pred, c.succ
	if pred.Addr == n.addr {
		// Last node: there is nowhere to hand the items — keep the store
		// intact (a WAL store retains them for a future restart) and stop.
		n.mu.Unlock()
		n.Close()
		return nil
	}
	seg := c.segment()
	sessID := (n.id ^ uint64(time.Now().UnixNano())) | 1
	sess, err := n.sessions.Prepare(sessID, seg, handoff.RoleLeave, handoff.Peer(pred), 0)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	n.met.handPrepares.Inc()
	n.publishLocked(next) // refuse item ops: the store must match the stream
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
		Target: uint64(c.end), NewAddr: succ.Addr, NewID: succ.ID, NewPoint: uint64(succ.Point)}
	if _, err := n.rpc(pred.Addr, offer); err != nil {
		n.sessions.Abort(sessID)
		n.transit((*ringCore).resume)
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
		n.transit((*ringCore).resume)
		n.tel.Emitf("leave.fail", "session %x: predecessor never committed; resuming service", sessID)
		return fmt.Errorf("p2p: leave handoff did not commit (predecessor failed mid-transfer); resuming service")
	}
	n.tel.Emitf("leave.commit", "session %x: segment absorbed by %s; departing", sessID, pred.Addr)
	// Committed: the predecessor owns segment and items, and the commit
	// handler already cleared the local store. The rest is best-effort and
	// must not fail the leave: a lost setpred only leaves the successor a
	// stale stabilization hint.
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
	resp := reply(n.transit(func(c *ringCore) (*ringCore, error) { return c.absorb(req.SrcAddr) }))
	if resp.OK {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.absorbLeave(req)
		}()
	}
	return resp
}

// absorbLeave is the predecessor's receiving side of a leave: run the
// session — pull the stream into staging, promote, extend the ring
// pointers, commit at the leaver — and keep or roll back by its outcome.
// The pointers extend before the commit RPC, so the moment the leaver's
// Leave() returns this node answers for the absorbed range; a refused
// commit rolls extension and promotion back. A join that committed the
// tail while the stream ran refuses the extension: the session aborts at
// the leaver, whose next attempt goes to its new predecessor, the joiner.
func (n *Node) absorbLeave(req request) {
	var covers []NodeInfo
	dirty := false
	defer n.transit(func(c *ringCore) (*ringCore, error) { return c.finishAbsorb(covers, dirty) })
	seg := interval.Segment{Start: interval.Point(req.SegStart), Len: req.SegLen}
	rec, err := handoff.Begin(n.walDir(), handoff.Receiver{
		ID: req.Session, Role: handoff.RoleLeave, Seg: seg, Sender: req.SrcAddr})
	if err != nil {
		// Nothing staged, but the leaver still blocks on the session:
		// release it (see rollBack).
		_, _ = n.senderWire(req.SrcAddr, req.Session).Abort()
		return
	}
	var before *ringCore // set with the extension: the end and successor it replaced
	out, err := rec.Run(n.senderWire(rec.Sender, rec.ID), n.data, func() error {
		prev, _, err := n.transit(func(c *ringCore) (*ringCore, error) {
			return c.extend(seg.Start, interval.Point(req.Target), req.peer())
		})
		if err == nil {
			before = prev
		}
		return err
	})
	// Unresolved after the extension means the commit was sent to a leaver
	// that then became unreachable, its fate unknown. If it landed, the
	// leaver durably cleared its store before going away — our promoted
	// copies are the ONLY copies, so aborting here would destroy the
	// segment. Keep the items and the extended pointers: the lossy
	// direction is unrecoverable, the duplicate direction is not (a leaver
	// that in fact crashed un-committed re-serves its WAL on restart, and
	// the stabilization pass re-adopts it as successor, shadowing our
	// duplicates). Unresolved before it, nothing was ever asked of the
	// leaver, which still owns the range: roll back like a refusal.
	keep := out == handoff.Committed || (out == handoff.Unresolved && before != nil)
	if before != nil {
		n.transit(func(c *ringCore) (*ringCore, error) { return c.settle(keep, before.end, before.succ) })
	}
	if !keep {
		n.rollBack(rec)
		n.tel.Emitf("absorb.abort", "session %x: leaver %s kept its range: %v", req.Session, req.SrcAddr, err)
		return
	}
	rec.Finish()
	// Our backward arc grew by the absorbed segment's. Add its covers now:
	// until the next stabilization, a walk stepping from the absorbed range
	// would otherwise go to our last entry and finish by a long ring walk.
	covers, _ = n.coversOfArc(continuous.DeltaBackImage(seg, Delta))
	if out == handoff.Committed {
		// The absorbed range's replicas were placed by the DEPARTED node
		// for its own successor chain; re-replicate for ours.
		dirty = n.repl.Enabled()
		n.tel.Emitf("absorb.commit", "session %x: absorbed leaver %s's [%v,+%d)",
			req.Session, req.SrcAddr, seg.Start, seg.Len)
	}
}

// --- staging recovery ---

// walDir is the node's WAL directory, beside which inbound sessions stage
// on disk and the commit log lives — or "" when the node's store is not
// disk-backed: sessions then stage in memory and commits are remembered
// in memory only.
func (n *Node) walDir() string {
	if lg, ok := n.data.(*store.Log); ok {
		return lg.Dir()
	}
	return ""
}

// recoverStaging takes up the staging sessions a previous process left
// beside this node's WAL directory. A join session is kept for StartJoin
// to resolve against the sender; a leave session that had reached
// promotion is finished (if our commit reached the leaver, these items
// exist nowhere else; if it did not, the duplicates are overwritten by
// the authoritative copies at the next absorb); anything else is debris
// whose sender still owns the range, and is discarded.
func (n *Node) recoverStaging() error {
	recs, err := handoff.Recover(n.walDir())
	if err != nil {
		return err
	}
	for _, rec := range recs {
		switch {
		case rec.Role == handoff.RoleJoin && n.recovered == nil:
			n.recovered = rec
		case rec.Role == handoff.RoleLeave && rec.Promoting():
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
