package handoff

// The fault explorer drives one join session through every schedule of
// faults up to a budget, in process and in virtual time. A real Receiver
// (WAL staging beside a WAL live store, Recover after a crash) runs Run
// against a real Sessions (with its commit log) and a WAL sender store,
// over an in-memory Wire. The sender side does what p2p's handlers do:
// Stream walks a cursor over the fenced range, Commit commits and then
// deletes the range, a repeated Commit of a committed session succeeds,
// Abort aborts unless committed. The receiver side does what p2p's
// StartJoin does: Run, then Finish on Committed, Abort on Refused, and on
// Unresolved a restart that recovers the session from disk and runs it
// again.
//
// Every Wire call is a choice point (see choice). After every step three
// things must hold: exactly one side owns the range and holds its items,
// every item is in at least one durable store, and the receiver reports
// Committed exactly when the sender committed.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"condisc/internal/interval"
	"condisc/internal/store"
)

// choice is what happens at one Wire call.
type choice uint8

const (
	deliver        choice = iota // the request lands and the reply returns
	dropRequest                  // the request is lost
	dropReply                    // the request lands (a stream sends one chunk), the reply is lost
	holdRequest                  // the request stays in flight while the receiver crashes and recovers; it lands later
	crashRecv                    // the receiver crashes before sending, and recovers
	crashRecvAfter               // the request lands (a stream stages one chunk), the receiver crashes, and recovers
	crashSender                  // the sender crashes and reopens from its store and commit log; the request reaches it
	expireTTL                    // the session TTL passes on the virtual clock; then the request lands
	releaseHeld                  // the held request lands, then this one (not a fault)
)

var choiceNames = [...]string{"deliver", "drop-request", "drop-reply", "hold", "crash-receiver",
	"crash-receiver-after", "crash-sender", "expire-ttl", "release-held"}

func (c choice) String() string { return choiceNames[c] }

func (c choice) fault() bool { return c != deliver && c != releaseHeld }

type callKind uint8

const (
	callStream callKind = iota
	callCommit
	callAbort
)

// exRequest is one call as the sender receives it.
type exRequest struct {
	kind   callKind
	resume bool
	p      interval.Point
	key    string
}

const (
	exID    = 0x47
	exItems = 16 // over the circle; the session moves the upper half
	exChunk = 3  // items per stream chunk
)

var (
	exSeg      = interval.Segment{Start: 1 << 63, Len: 1 << 63}
	errExLost  = fmt.Errorf("explorer: connection lost")
	errExCrash = fmt.Errorf("explorer: receiver crashed: %w", ErrInterrupted)
)

// step records one choice point: the state before it, for pruning, and
// what was chosen.
type step struct {
	key    string
	choice choice
	faults int
	held   bool
}

// exStats counts, over all schedules, the paths worth knowing were taken.
type exStats struct {
	schedules, steps, restarts int
	committed, refused         int
	lateCommitFound            int // a refused stream's abort read committed
}

// explorer is one schedule's world.
type explorer struct {
	t      *testing.T
	dir    string
	budget int
	prefix []choice   // replayed first
	rng    *rand.Rand // past the prefix: random choices, or deliver when nil
	trace  []step
	faults int
	stats  *exStats

	clock    time.Time
	ss       *Sessions
	src      *store.Log // the sender's store
	live     *store.Log // the receiver's store
	rec      *Receiver
	held     *exRequest
	runCalls [3]int
	resolved bool
	outcome  Outcome
	items    []store.Item
}

// now is the virtual clock the sender's Sessions read.
func (x *explorer) now() time.Time { return x.clock }

func (x *explorer) fatalf(format string, args ...any) {
	x.t.Helper()
	var path []string
	for _, s := range x.trace {
		path = append(path, s.choice.String())
	}
	x.t.Fatalf("schedule %v: "+format, append([]any{path}, args...)...)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// setUp builds the world in a fresh directory: a sender holding exItems
// items with the session prepared over exSeg, and a receiver that has
// begun it.
func (x *explorer) setUp(base string) {
	dir, err := os.MkdirTemp(base, "s")
	must(x.t, err)
	x.dir = dir
	x.clock = time.Unix(1, 0)
	x.src, err = store.OpenLog(filepath.Join(dir, "sender"), store.LogOptions{})
	must(x.t, err)
	step := ^uint64(0)/exItems + 1
	for i := 0; i < exItems; i++ {
		it := store.Item{Point: interval.Point(uint64(i) * step), Key: fmt.Sprintf("k%02d", i), Value: []byte{byte(i)}}
		must(x.t, x.src.Put(it.Point, it.Key, it.Value))
		x.items = append(x.items, it)
	}
	x.openSender()
	_, err = x.ss.Prepare(exID, exSeg, RoleJoin, Peer{}, 0)
	must(x.t, err)
	x.live, err = store.OpenLog(filepath.Join(dir, "receiver"), store.LogOptions{})
	must(x.t, err)
	x.rec, err = Begin(x.live.Dir(), Receiver{ID: exID, Role: RoleJoin, Seg: exSeg, Sender: "sender"})
	must(x.t, err)
}

func (x *explorer) openSender() {
	var err error
	x.ss, err = NewSessions(DefaultTTL, filepath.Join(x.dir, "sender.commits"))
	must(x.t, err)
	x.ss.now = x.now
}

func (x *explorer) tearDown() {
	x.ss.Close()
	x.src.Close()
	x.live.Close()
	if x.rec != nil {
		x.rec.staging.Close()
	}
	os.RemoveAll(x.dir)
}

// run plays one schedule to the end: the receiver resolves, and a request
// still in flight lands.
func (x *explorer) run(base string) {
	x.setUp(base)
	defer x.tearDown()
	sleep = func(d time.Duration) { x.clock = x.clock.Add(d) }
	for !x.resolved {
		x.runCalls = [3]int{}
		out, _ := x.rec.Run(exWire{x}, x.live, nil)
		switch {
		case out == Committed:
			must(x.t, x.rec.Finish())
		case out == Refused:
			must(x.t, x.rec.Abort(x.live))
		case len(x.trace) > 400:
			x.fatalf("no outcome after %d calls", len(x.trace))
		default: // crashed, or gave up: a restart takes the session up
			x.restartReceiver()
			x.check("after the receiver restarted")
			continue
		}
		x.resolved, x.outcome, x.rec = true, out, nil
		x.check("after the receiver resolved")
	}
	if x.held != nil {
		x.serve(*x.held, nil, false)
		x.held = nil
		x.check("after the request in flight landed")
	}
	x.stats.schedules++
	x.stats.steps += len(x.trace)
	if x.outcome == Committed {
		x.stats.committed++
	} else {
		x.stats.refused++
	}
}

// restartReceiver crashes the receiver's process and recovers the session
// from its disk, as a restarted p2p node does.
func (x *explorer) restartReceiver() {
	x.stats.restarts++
	x.rec.staging.Close()
	x.live.Close()
	var err error
	x.live, err = store.OpenLog(filepath.Join(x.dir, "receiver"), store.LogOptions{})
	must(x.t, err)
	recs, err := Recover(x.live.Dir())
	must(x.t, err)
	if len(recs) != 1 {
		x.fatalf("a restarted receiver recovered %d sessions, want 1", len(recs))
	}
	x.rec = recs[0]
}

// choose picks the choice at the next call point.
func (x *explorer) choose(kind callKind) choice {
	st := step{key: x.key(kind), faults: x.faults, held: x.held != nil}
	switch i := len(x.trace); {
	case i < len(x.prefix):
		st.choice = x.prefix[i]
	case x.rng != nil:
		st.choice = x.randomChoice(st)
	}
	x.trace = append(x.trace, st)
	if st.choice.fault() {
		x.faults++
	}
	return st.choice
}

// alternatives are the choices other than deliver open at a call point.
func (x *explorer) alternatives(st step) []choice {
	var out []choice
	if st.held {
		out = append(out, releaseHeld)
	}
	if st.faults >= x.budget {
		return out
	}
	for c := dropRequest; c < releaseHeld; c++ {
		if c != holdRequest || !st.held {
			out = append(out, c)
		}
	}
	return out
}

func (x *explorer) randomChoice(st step) choice {
	alt := x.alternatives(st)
	if len(alt) == 0 || x.rng.IntN(3) > 0 {
		return deliver
	}
	return alt[x.rng.IntN(len(alt))]
}

// key is the state at a call point: everything the rest of the schedule
// depends on, so two points with one key have the same futures.
func (x *explorer) key(kind callKind) string {
	reg, left := StateUnknown, time.Duration(0)
	if s, ok := x.ss.m[exID]; ok {
		reg, left = s.State(), time.Duration(s.deadline.Load()-x.clock.UnixNano())
	}
	held := -1
	if x.held != nil {
		held = int(x.held.kind)
	}
	return fmt.Sprintf("%d %v f%d h%d reg %v %v log %v src %d rec %s %d live %d",
		kind, x.runCalls, x.faults, held, reg, left, x.ss.log.contains(exID), x.src.Len(),
		x.rec.state, x.rec.staging.Len(), x.live.Len())
}

// call plays one Wire call under the choice made for it.
func (x *explorer) call(req exRequest, apply func([]store.Item) error) (yes bool, err error) {
	c := x.choose(req.kind)
	x.runCalls[req.kind]++
	if c == releaseHeld {
		x.serve(*x.held, nil, false)
		x.held = nil
		x.check("after the request in flight landed")
		c = deliver
	}
	switch c {
	case deliver:
		yes, err = x.serve(req, apply, false)
	case dropRequest:
		err = errExLost
	case dropReply:
		x.serve(req, apply, true)
		err = errExLost
	case holdRequest:
		x.held, err = &req, errExCrash
	case crashRecv:
		err = errExCrash
	case crashRecvAfter:
		x.serve(req, apply, true)
		err = errExCrash
	case crashSender:
		must(x.t, x.ss.Close())
		must(x.t, x.src.Close())
		x.src, err = store.OpenLog(filepath.Join(x.dir, "sender"), store.LogOptions{})
		must(x.t, err)
		x.openSender()
		yes, err = x.serve(req, apply, false)
	case expireTTL:
		x.clock = x.clock.Add(DefaultTTL + time.Nanosecond)
		yes, err = x.serve(req, apply, false)
	}
	x.check("after " + c.String())
	return yes, err
}

// serve is the sender handling one request; apply is nil when nobody is
// left to read the reply. partial cuts a stream after its first chunk.
func (x *explorer) serve(req exRequest, apply func([]store.Item) error, partial bool) (bool, error) {
	switch req.kind {
	case callStream:
		s, ok := x.ss.Get(exID)
		if !ok {
			return false, &RemoteError{Msg: "unknown session"}
		}
		cur := x.src.Cursor(s.Seg)
		defer cur.Close()
		if req.resume {
			cur.Seek(req.p, req.key)
		}
		for {
			items, err := cur.Next(exChunk)
			if err != nil || items == nil {
				return false, err
			}
			if apply != nil {
				if err := apply(items); err != nil {
					return false, err
				}
			}
			x.ss.Touch(s)
			if partial {
				return false, errExLost
			}
		}
	case callCommit:
		if _, ok := x.ss.Get(exID); !ok {
			if x.ss.Status(exID) == StateCommitted {
				return false, nil
			}
			return false, &RemoteError{Msg: "unknown or expired session"}
		}
		if _, ok, err := x.ss.Commit(exID); !ok || err != nil {
			x.fatalf("commit of a streaming session: %v, %v", ok, err)
		}
		return false, x.src.DeleteRange(exSeg)
	default:
		final, _ := x.ss.Abort(exID)
		return final == StateCommitted, nil
	}
}

// check asserts the three invariants.
func (x *explorer) check(when string) {
	x.t.Helper()
	st := x.ss.Status(exID)
	committed := st == StateCommitted
	// The receiver reports Committed exactly when the sender committed.
	if x.resolved && (x.outcome == Committed) != committed {
		x.fatalf("%s: the receiver resolved %s, the sender's session reads %v", when,
			[...]string{"unresolved", "refused", "committed"}[x.outcome], st)
	}
	// Exactly one side owns the range: the sender until its commit, the
	// receiver from then on, and the owner holds every item of it. The
	// sender fences the range exactly while the session streams.
	if fenced := x.ss.Fenced(exSeg.Start); fenced != (st == StateStreaming) {
		x.fatalf("%s: fenced %v with the session %v", when, fenced, st)
	}
	for _, it := range x.items {
		inSrc, inStaging, inLive := x.has(x.src, it), x.rec != nil && x.has(x.rec.staging, it), x.has(x.live, it)
		switch {
		case !exSeg.Contains(it.Point):
			if !inSrc || inLive || inStaging {
				x.fatalf("%s: item %s outside the range moved", when, it.Key)
			}
		case !committed && !inSrc:
			x.fatalf("%s: the sender owns the range but lost %s", when, it.Key)
		case committed && !inLive:
			x.fatalf("%s: the receiver owns the range but lacks %s", when, it.Key)
		// Every item is in at least one durable store.
		case !inSrc && !inStaging && !inLive:
			x.fatalf("%s: item %s is in no store", when, it.Key)
		}
	}
}

func (x *explorer) has(s store.Store, it store.Item) bool {
	v, ok, err := s.Get(it.Point, it.Key)
	if err != nil {
		x.fatalf("get %s: %v", it.Key, err)
	}
	return ok && string(v) == string(it.Value)
}

// exWire is the receiver's line to the sender.
type exWire struct{ x *explorer }

func (w exWire) Stream(resume bool, p interval.Point, key string, apply func([]store.Item) error) error {
	_, err := w.x.call(exRequest{kind: callStream, resume: resume, p: p, key: key}, apply)
	return err
}

func (w exWire) Commit() (bool, error) {
	_, err := w.x.call(exRequest{kind: callCommit}, nil)
	return false, err
}

func (w exWire) Abort() (bool, error) {
	committed, err := w.x.call(exRequest{kind: callAbort}, nil)
	if committed && err == nil && w.x.runCalls[callCommit] == 0 { // this Run sent no commit: its stream was refused
		w.x.stats.lateCommitFound++
	}
	return committed, err
}

// TestExploreHandoffFaults enumerates every schedule of up to two faults
// by depth-first search, pruning call points whose state an earlier
// schedule already reached, then plays seeded random walks with up to six.
func TestExploreHandoffFaults(t *testing.T) {
	t.Cleanup(func() { sleep = time.Sleep })
	base := t.TempDir()
	var stats exStats
	seen := map[string]bool{}
	var dfs func(prefix []choice)
	dfs = func(prefix []choice) {
		x := &explorer{t: t, budget: 2, prefix: prefix, stats: &stats}
		x.run(base)
		for i := len(prefix); i < len(x.trace); i++ {
			st := x.trace[i]
			if seen[st.key] {
				break // every future of this state is explored from its first visit
			}
			seen[st.key] = true
			for _, c := range x.alternatives(st) {
				next := make([]choice, i+1)
				for j := range x.trace[:i] {
					next[j] = x.trace[j].choice
				}
				next[i] = c
				dfs(next)
			}
		}
	}
	start := time.Now()
	dfs(nil)
	dfsStats, dfsTime := stats, time.Since(start)
	for seed := uint64(1); seed <= 300; seed++ {
		x := &explorer{t: t, budget: 6, rng: rand.New(rand.NewPCG(seed, 47)), stats: &stats}
		x.run(base)
	}
	t.Logf("DFS (≤ 2 faults): %d schedules, %d states, %d steps, %d receiver restarts in %v; with the random walks: %d schedules, %d steps in %v",
		dfsStats.schedules, len(seen), dfsStats.steps, dfsStats.restarts, dfsTime.Round(time.Millisecond),
		stats.schedules, stats.steps, time.Since(start).Round(time.Millisecond))
	// The exploration must reach both outcomes and the path the status
	// probe got wrong: a restarted receiver whose earlier commit landed
	// finds its stream refused, and the abort reads committed.
	if dfsStats.committed == 0 || dfsStats.refused == 0 || dfsStats.lateCommitFound == 0 {
		t.Fatalf("exploration missed a path: %+v", dfsStats)
	}
}
