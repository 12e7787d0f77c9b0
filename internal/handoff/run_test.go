package handoff

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"condisc/internal/interval"
	"condisc/internal/store"
)

// TestSessionsCommitLog: with a commit-log path the registry's commit
// decisions survive the process — a reopened registry still reads
// committed (and so refuses to abort), reads unknown for everything else.
func TestSessionsCommitLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.commits")
	ss, err := NewSessions(time.Hour, path)
	if err != nil {
		t.Fatal(err)
	}
	seg := interval.Segment{Start: 100, Len: 100}
	for _, id := range []uint64{1, 2} {
		if _, err := ss.Prepare(id, interval.Segment{Start: seg.Start + interval.Point(id*1000), Len: 10}, RoleJoin, Peer{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, logErr := ss.Commit(1); !ok || logErr != nil {
		t.Fatalf("commit = %v, %v", ok, logErr)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	ss2, err := NewSessions(time.Hour, path)
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	if st := ss2.Status(1); st != StateCommitted {
		t.Fatalf("reopened registry reads session 1 as %v, want committed", st)
	}
	if st, aborted := ss2.Abort(1); st != StateCommitted || aborted {
		t.Fatalf("abort of a logged commit = %v, %v; commit must win", st, aborted)
	}
	if st := ss2.Status(2); st != StateUnknown {
		t.Fatalf("uncommitted session 2 reads %v after the restart, want unknown", st)
	}
}

// TestSessionsCommitLogAppendFails: a commit whose durable record cannot be
// written still commits — in memory only, as a registry without a log
// would — and says so.
func TestSessionsCommitLogAppendFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.commits")
	ss, err := NewSessions(time.Hour, path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ss.Prepare(1, interval.Segment{Start: 1, Len: 10}, RoleLeave, Peer{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ss.log.f.Close() // the disk goes away under the open log
	c, ok, logErr := ss.Commit(1)
	if !ok || c != s || logErr == nil {
		t.Fatalf("commit with a dead log = %v, %v, %v; want the session, ok and the append error", c, ok, logErr)
	}
	if st := ss.Status(1); st != StateCommitted || s.State() != StateCommitted {
		t.Fatalf("status = %v, session state %v; want committed in memory", st, s.State())
	}
	ss2, err := NewSessions(time.Hour, path)
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	if st := ss2.Status(1); st != StateUnknown {
		t.Fatalf("a commit that never reached the log reads %v after a restart", st)
	}
}

// fakeWire is a scripted sender over a source store: streamFails broken
// connections (each dies after one chunk) before the stream completes,
// then the commit and abort replies in order (the last one repeats).
type fakeWire struct {
	t           *testing.T
	src         store.Store
	seg         interval.Segment
	refuse      bool
	streamFails int
	commits     []wireReply
	aborts      []wireReply

	streams, commitCalls, abortCalls int
	last                             store.Item // last item handed to apply
	sent                             bool
}

// wireReply is one scripted answer: yes is Commit's retry or Abort's
// committed flag.
type wireReply struct {
	yes bool
	err error
}

var errConn = errors.New("connection reset")

func (w *fakeWire) Stream(resume bool, p interval.Point, key string, apply func([]store.Item) error) error {
	w.streams++
	if w.refuse {
		return &RemoteError{Msg: "unknown session"}
	}
	if resume != w.sent || (resume && (p != w.last.Point || key != w.last.Key)) {
		w.t.Errorf("stream %d resumes after (%v, %q, %v), want strictly after the staged prefix (%v, %q, %v)",
			w.streams, p, key, resume, w.last.Point, w.last.Key, w.sent)
	}
	cur := w.src.Cursor(w.seg)
	defer cur.Close()
	if resume {
		cur.Seek(p, key)
	}
	for {
		items, err := cur.Next(10)
		if err != nil || items == nil {
			return err
		}
		if err := apply(items); err != nil {
			return err
		}
		w.last, w.sent = items[len(items)-1], true
		if w.streamFails > 0 {
			w.streamFails--
			return errConn
		}
	}
}

func next(script []wireReply, call int) (bool, error) {
	r := script[min(call, len(script)-1)]
	return r.yes, r.err
}

func (w *fakeWire) Commit() (bool, error) {
	w.commitCalls++
	return next(w.commits, w.commitCalls-1)
}

func (w *fakeWire) Abort() (bool, error) {
	w.abortCalls++
	return next(w.aborts, w.abortCalls-1)
}

// noSleep runs Run's retry pauses in no time for the rest of the test.
func noSleep(t *testing.T) {
	sleep = func(time.Duration) {}
	t.Cleanup(func() { sleep = time.Sleep })
}

var errKilled = fmt.Errorf("killed: %w", ErrInterrupted)

// TestRun drives the receiving driver against every answer a sender can
// give: the outcome, what reached the live store, and how often each
// request was sent.
func TestRun(t *testing.T) {
	noSleep(t)
	const items = 100
	refusal := &RemoteError{Msg: "no"}
	ok := []wireReply{{}}
	for _, tc := range []struct {
		name                     string
		wire                     fakeWire
		publishErr               error
		want                     Outcome
		promoted                 int
		streams, commits, aborts int
	}{
		{name: "clean run", wire: fakeWire{commits: ok},
			want: Committed, promoted: items, streams: 1, commits: 1},
		{name: "stream dies twice then resumes", wire: fakeWire{streamFails: 2, commits: ok},
			want: Committed, promoted: items, streams: 3, commits: 1},
		{name: "stream never completes", wire: fakeWire{streamFails: streamAttempts},
			want: Unresolved, streams: streamAttempts},
		{name: "sender refuses the stream", wire: fakeWire{refuse: true, aborts: ok},
			want: Refused, streams: 1, aborts: 1},
		{name: "sender refuses the stream, abort reads committed", wire: fakeWire{refuse: true, aborts: []wireReply{{true, nil}}},
			want: Committed, streams: 1, aborts: 1},
		{name: "sender refuses the stream, receiver killed probing", wire: fakeWire{refuse: true, aborts: []wireReply{{false, errKilled}}},
			want: Unresolved, streams: 1, aborts: 1},
		{name: "publish refuses", wire: fakeWire{}, publishErr: errors.New("boundary moved"),
			want: Refused, promoted: items, streams: 1},
		{name: "commit refused", wire: fakeWire{commits: []wireReply{{false, refusal}}},
			want: Refused, promoted: items, streams: 1, commits: 1},
		{name: "commit retry x3 then ok", wire: fakeWire{commits: []wireReply{{true, refusal}, {true, refusal}, {true, refusal}, {}}},
			want: Committed, promoted: items, streams: 1, commits: 4},
		{name: "commit lost, abort reads committed", wire: fakeWire{commits: []wireReply{{false, errConn}}, aborts: []wireReply{{false, errConn}, {true, nil}}},
			want: Committed, promoted: items, streams: 1, commits: 1, aborts: 2},
		{name: "commit lost, abort wins", wire: fakeWire{commits: []wireReply{{false, errConn}}, aborts: []wireReply{{false, nil}}},
			want: Refused, promoted: items, streams: 1, commits: 1, aborts: 1},
		{name: "commit lost, sender never answers", wire: fakeWire{commits: []wireReply{{false, errConn}}, aborts: []wireReply{{false, errConn}}},
			want: Unresolved, promoted: items, streams: 1, commits: 1, aborts: commitProbeAttempts},
		{name: "receiver killed at the commit", wire: fakeWire{commits: []wireReply{{false, errKilled}}},
			want: Unresolved, promoted: items, streams: 1, commits: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w := &tc.wire
			w.t, w.src, w.seg = t, store.NewMem(), interval.FullCircle
			fill(t, w.src, items, []byte("v"))
			recv, err := Begin("", Receiver{ID: 1, Role: RoleLeave, Seg: w.seg, Sender: "fake"})
			if err != nil {
				t.Fatal(err)
			}
			live := store.NewMem()
			published := false
			out, err := recv.Run(w, live, func() error {
				if live.Len() != items {
					t.Errorf("publish ran with %d of %d items promoted", live.Len(), items)
				}
				if w.commitCalls != 0 {
					t.Error("publish ran after the commit was sent")
				}
				published = true
				return tc.publishErr
			})
			if out != tc.want || (err == nil) != (out == Committed) {
				t.Fatalf("Run = %v, %v; want outcome %v", out, err, tc.want)
			}
			if live.Len() != tc.promoted || published != (tc.promoted > 0) {
				t.Errorf("%d items promoted, published %v; want %d", live.Len(), published, tc.promoted)
			}
			if w.streams != tc.streams || w.commitCalls != tc.commits || w.abortCalls != tc.aborts {
				t.Errorf("sent %d streams, %d commits, %d aborts; want %d, %d, %d",
					w.streams, w.commitCalls, w.abortCalls, tc.streams, tc.commits, tc.aborts)
			}
			// The caller's half of the contract: Refused rolls back to
			// "never happened", anything else can finish.
			if out == Refused {
				if err := recv.Abort(live); err != nil || live.Len() != 0 {
					t.Fatalf("rollback left %d items: %v", live.Len(), err)
				}
			} else if err := recv.Finish(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunInterrupted: an ErrInterrupted from the wire stops the driver on
// the spot — no reconnect, nothing promoted, the staged prefix kept.
func TestRunInterrupted(t *testing.T) {
	w := &interruptingWire{fakeWire{t: t, src: store.NewMem(), seg: interval.FullCircle}}
	fill(t, w.src, 100, []byte("v"))
	recv, err := Begin("", Receiver{ID: 1, Role: RoleJoin, Seg: w.seg, Sender: "fake"})
	if err != nil {
		t.Fatal(err)
	}
	live := store.NewMem()
	out, err := recv.Run(w, live, nil)
	if out != Unresolved || !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run = %v, %v; want Unresolved wrapping ErrInterrupted", out, err)
	}
	if w.streams != 1 || live.Len() != 0 || recv.staging.Len() != 10 {
		t.Fatalf("%d streams, %d promoted, %d staged; want 1, 0 and the first chunk's 10", w.streams, live.Len(), recv.staging.Len())
	}
}

type interruptingWire struct{ fakeWire }

func (w *interruptingWire) Stream(resume bool, p interval.Point, key string, apply func([]store.Item) error) error {
	w.streamFails = 1
	if err := w.fakeWire.Stream(resume, p, key, apply); err != errConn {
		return err
	}
	return fmt.Errorf("killed: %w", ErrInterrupted)
}
