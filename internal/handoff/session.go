package handoff

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"condisc/internal/interval"
)

// SessionState is the sender-side lifecycle of a transfer.
type SessionState int32

const (
	// StateUnknown: no such session (never prepared, expired, or aborted).
	// A receiver probing an unknown session must treat the sender as the
	// owner and abort its own side.
	StateUnknown SessionState = iota
	// StateStreaming: prepared; the range is fenced against writes and
	// the sender still owns it.
	StateStreaming
	// StateCommitted: the sender deleted the range and flipped ownership;
	// the receiver is the owner even if it has not finished cleaning up.
	StateCommitted
)

func (s SessionState) String() string {
	switch s {
	case StateStreaming:
		return "streaming"
	case StateCommitted:
		return "committed"
	default:
		return "unknown"
	}
}

// Peer is a ring identity as a session carries it: a node's stable id,
// segment start and address.
type Peer struct {
	ID    uint64
	Point uint64
	Addr  string
}

// Session is one sender-side transfer. Seg is the moving range; Role, Peer
// (the receiver: a join's joiner, a leave's absorbing predecessor) and
// RingVer are what the sender needs again at commit time. The session
// owns a done channel closed at commit or abort, so a sender that must
// outlive its RPC (a leaver waiting for its predecessor to pull the
// stream) can block on the outcome.
type Session struct {
	ID   uint64
	Seg  interval.Segment
	Role string // RoleJoin or RoleLeave
	Peer Peer
	// RingVer is the sender's (end, succ) version at prepare time. A join
	// commit whose stamp is stale AND whose range is no longer the segment
	// tail was prepared against a boundary that has since moved (a leave
	// absorption extended it): it can be refused definitively instead of
	// making the joiner spin on retries that can never succeed.
	RingVer  uint64
	state    atomic.Int32
	deadline atomic.Int64 // unixnano; refreshed by activity
	done     chan struct{}
	doneOnce sync.Once
}

// State returns the session's current state.
func (s *Session) State() SessionState { return SessionState(s.state.Load()) }

// Done is closed when the session commits or aborts; check State after.
func (s *Session) Done() <-chan struct{} { return s.done }

func (s *Session) finish(st SessionState) {
	s.state.Store(int32(st))
	s.doneOnce.Do(func() { close(s.done) })
}

// Sessions is a sender's registry of active transfers. It enforces the
// write fence (Fenced), refuses overlapping prepares, and lazily expires
// sessions whose receiver went silent past the TTL — an expired streaming
// session aborts (the sender keeps the range), so an abandoned receiver
// can never wedge the sender's writes forever. It also keeps the sender's
// durable commit record (commitLog), so "is session X committed" has one
// answer, Status, whether the registry or only the log remembers it.
type Sessions struct {
	ttl time.Duration
	now func() time.Time // time.Now: the package's one wall-clock source
	mu  sync.Mutex
	m   map[uint64]*Session
	log *commitLog // nil = memory only
}

// DefaultTTL is the receiver-silence deadline after which a sender
// unilaterally aborts a streaming session.
const DefaultTTL = 30 * time.Second

// NewSessions returns a registry with the given receiver-silence TTL
// (DefaultTTL if d <= 0). commitLogPath names the durable commit record
// kept beside a disk-backed sender's store; "" keeps commit decisions in
// memory only (a mem-backed sender's items die with the process, so there
// is nothing a remembered commit could protect).
func NewSessions(d time.Duration, commitLogPath string) (*Sessions, error) {
	if d <= 0 {
		d = DefaultTTL
	}
	// The registry reads the clock only through ss.now, so this is the
	// single wall-clock source of the session machinery.
	//condisc:wallclock receiver-silence TTLs measure real elapsed time across processes; churntest's in-process path never lets a session expire
	ss := &Sessions{ttl: d, now: time.Now, m: map[uint64]*Session{}}
	if commitLogPath != "" {
		var err error
		if ss.log, err = openCommitLog(commitLogPath, ss.committedFor()); err != nil {
			return nil, err
		}
	}
	return ss, nil
}

// committedFor is how long a commit decision stays answerable, in the
// registry and in the log alike — far past the streaming TTL: a receiver
// that crashed after the commit landed must still read "committed" (not
// "unknown") when it restarts and asks for an abort, or it would roll back
// a range it now owns. 100× the receiver-silence TTL bounds the leak;
// past it an abort reading "unknown" resolves against the ring.
func (ss *Sessions) committedFor() time.Duration { return 100 * ss.ttl }

// Close releases the commit log.
func (ss *Sessions) Close() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.log == nil {
		return nil
	}
	return ss.log.close()
}

// expireLocked drops sessions past their deadline: streaming ones abort
// (ownership stays with the sender), committed ones are garbage-collected
// (their outcome is already durable; a very late abort reads unknown,
// which the receiver resolves against the ring).
func (ss *Sessions) expireLocked(now time.Time) {
	for id, s := range ss.m {
		if now.UnixNano() > s.deadline.Load() {
			if s.State() == StateStreaming {
				s.finish(StateUnknown)
			}
			delete(ss.m, id)
		}
	}
}

// Prepare opens a session for seg. It refuses a zero or duplicate id and
// any seg overlapping an active session's range — one range, one mover.
func (ss *Sessions) Prepare(id uint64, seg interval.Segment, role string, peer Peer, ringVer uint64) (*Session, error) {
	if id == 0 {
		return nil, fmt.Errorf("handoff: session id must be nonzero")
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	now := ss.now()
	ss.expireLocked(now)
	if _, ok := ss.m[id]; ok {
		return nil, fmt.Errorf("handoff: session %x already exists", id)
	}
	for _, s := range ss.m {
		if s.State() == StateStreaming && s.Seg.Overlaps(seg) {
			return nil, fmt.Errorf("handoff: range %v is mid-handoff (session %x)", seg, s.ID)
		}
	}
	s := &Session{ID: id, Seg: seg, Role: role, Peer: peer, RingVer: ringVer, done: make(chan struct{})}
	s.state.Store(int32(StateStreaming))
	s.deadline.Store(now.Add(ss.ttl).UnixNano())
	ss.m[id] = s
	return s, nil
}

// Get returns the session if it is still streaming, refreshing its
// deadline (stream activity keeps a session alive).
func (ss *Sessions) Get(id uint64) (*Session, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	now := ss.now()
	ss.expireLocked(now)
	s, ok := ss.m[id]
	if !ok || s.State() != StateStreaming {
		return nil, false
	}
	s.deadline.Store(now.Add(ss.ttl).UnixNano())
	return s, true
}

// Touch refreshes a session's deadline (called per streamed frame).
func (ss *Sessions) Touch(s *Session) {
	s.deadline.Store(ss.now().Add(ss.ttl).UnixNano())
}

// Fenced reports whether p lies in the range of an active (streaming)
// session: a write there would be invisible to a cursor already past it
// and silently lost at commit, so the caller must refuse it.
func (ss *Sessions) Fenced(p interval.Point) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.expireLocked(ss.now())
	for _, s := range ss.m {
		if s.State() == StateStreaming && s.Seg.Contains(p) {
			return true
		}
	}
	return false
}

// Streaming returns the currently streaming sessions, ordered by id so
// callers iterate deterministically. Multiple sessions over disjoint
// ranges may stream at once; the p2p node uses this to bound a new
// join's range at the nearest already-fenced range instead of refusing
// the join.
func (ss *Sessions) Streaming() []*Session {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.expireLocked(ss.now())
	var out []*Session
	for _, s := range ss.m {
		if s.State() == StateStreaming {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b *Session) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Commit transitions a streaming session to committed and returns it; ok
// is false if the session is unknown, expired, or already resolved — the
// caller must NOT flip ownership then. The caller performs its pointer
// flip in the same critical section that calls Commit, making the
// sender's commit point atomic with the state change.
//
// With a commit log the decision is appended and fsynced BEFORE the
// session reads committed, so durability precedes every observer: Status
// and Abort wait on the registry lock held here, Done closes afterwards,
// and the caller's response is emitted after Commit returns — once anyone
// sees the commit, a crash cannot forget it (the dual-crash corner). A
// crash between the record and the caller's range delete is the crash
// just after a completed commit the protocol already survives. A failed
// append only degrades to the registry's memory (the session still
// commits); logErr reports it.
func (ss *Sessions) Commit(id uint64) (s *Session, ok bool, logErr error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	now := ss.now()
	ss.expireLocked(now)
	s, ok = ss.m[id]
	if !ok || s.State() != StateStreaming {
		return nil, false, nil
	}
	s.deadline.Store(now.Add(ss.committedFor()).UnixNano())
	if ss.log != nil {
		logErr = ss.log.record(id)
	}
	s.finish(StateCommitted)
	return s, true, logErr
}

// Abort resolves a streaming session as failed — the fence lifts and the
// sender remains the owner — and returns the session's final state:
// commit wins, so a committed session (by registry or log) reads
// StateCommitted and is left alone. aborted reports whether this call
// ended a streaming session. Abort and Commit exclude each other, so the
// answer is final either way.
func (ss *Sessions) Abort(id uint64) (final SessionState, aborted bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.expireLocked(ss.now())
	if final = ss.statusLocked(id); final == StateStreaming {
		ss.m[id].finish(StateUnknown)
		delete(ss.m, id)
		return StateUnknown, true
	}
	return final, false
}

// Status reports a session's state: streaming and committed are reported
// as such; everything else is unknown. The registry is authoritative
// while this process lives; after a restart the commit log still answers
// for committed sessions. Its callers are the idempotent re-commit (is a
// commit of a session no longer streaming a repeat?) and a blocked
// Leave's lazy expiry; a receiver learns its session's fate from Abort.
func (ss *Sessions) Status(id uint64) SessionState {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.expireLocked(ss.now())
	return ss.statusLocked(id)
}

func (ss *Sessions) statusLocked(id uint64) SessionState {
	if s, ok := ss.m[id]; ok {
		return s.State()
	}
	if ss.log != nil && ss.log.contains(id) {
		return StateCommitted
	}
	return StateUnknown
}
