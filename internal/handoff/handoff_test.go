package handoff

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"condisc/internal/interval"
	"condisc/internal/store"
)

func fill(t testing.TB, s store.Store, n int, val []byte) {
	t.Helper()
	step := ^uint64(0)/uint64(n) + 1
	for i := 0; i < n; i++ {
		if err := s.Put(interval.Point(uint64(i)*step), fmt.Sprintf("k%09d", i), val); err != nil {
			t.Fatal(err)
		}
	}
}

// scanItems collects seg's items through store.Scan.
func scanItems(t testing.TB, s store.Store, seg interval.Segment) []store.Item {
	t.Helper()
	var got []store.Item
	if err := store.Scan(s, seg, func(items []store.Item) error {
		got = append(got, items...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMove: the in-process transfer moves exactly the segment, leaves the
// rest, and deletes the moved range at the source.
func TestMove(t *testing.T) {
	src, dst := store.NewMem(), store.NewMem()
	fill(t, src, 128, []byte("v")) // power of two: exact point spacing
	step := uint64(1) << 57
	seg := interval.Segment{Start: interval.Point(120 * step), Len: 16 * step} // wraps
	moved, err := Move(src, dst, seg)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 16 || dst.Len() != 16 || src.Len() != 112 {
		t.Fatalf("moved %d, dst %d, src %d; want 16/16/112", moved, dst.Len(), src.Len())
	}
	for _, it := range scanItems(t, dst, interval.FullCircle) {
		if !seg.Contains(it.Point) {
			t.Fatalf("item %s outside the moved segment", it.Key)
		}
	}
}

// TestStreamRoundtrip: a full sender→receiver stream over an in-memory
// pipe reproduces the range exactly, and the EOF count/sum verification
// passes.
func TestStreamRoundtrip(t *testing.T) {
	src := store.NewMem()
	fill(t, src, 1000, []byte("some-value-payload"))
	recv, err := Begin("", Receiver{ID: 7, Role: RoleJoin, Seg: interval.FullCircle, Sender: "test"})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go func() {
		cur := src.Cursor(interval.FullCircle)
		defer cur.Close()
		_, _, err := Stream(pw, cur, 4<<10, nil)
		pw.CloseWithError(err)
	}()
	n, err := ReadStream(bufio.NewReader(pr), recv.apply, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 || recv.staging.Len() != 1000 {
		t.Fatalf("streamed %d, staged %d, want 1000", n, recv.staging.Len())
	}
	live := store.NewMem()
	if err := recv.Promote(live); err != nil {
		t.Fatal(err)
	}
	if live.Len() != 1000 {
		t.Fatalf("promoted %d items, want 1000", live.Len())
	}
}

// TestStreamResume: a connection broken mid-stream is resumed from the
// receiver's last staged position; the union of both connections is the
// exact range, nothing lost or duplicated.
func TestStreamResume(t *testing.T) {
	src := store.NewMem()
	fill(t, src, 500, []byte("abcdefgh"))
	recv, err := Begin("", Receiver{ID: 9, Role: RoleJoin, Seg: interval.FullCircle, Sender: "test"})
	if err != nil {
		t.Fatal(err)
	}

	// First connection: apply one chunk, then fail.
	pr, pw := io.Pipe()
	go func() {
		cur := src.Cursor(interval.FullCircle)
		defer cur.Close()
		Stream(pw, cur, 1<<10, nil)
		pw.Close()
	}()
	chunks := 0
	_, err = ReadStream(bufio.NewReader(pr), func(items []store.Item) error {
		if chunks >= 1 {
			return fmt.Errorf("injected receiver failure")
		}
		chunks++
		return recv.apply(items)
	}, nil)
	pr.CloseWithError(io.ErrClosedPipe)
	if err == nil {
		t.Fatal("first connection should have failed")
	}
	staged := recv.staging.Len()
	if staged == 0 || staged == 500 {
		t.Fatalf("want a partial stage, got %d", staged)
	}

	// Second connection: resume strictly after the staged prefix.
	p, key, ok, err := recv.resumeAfter()
	if err != nil || !ok {
		t.Fatalf("ResumeAfter: %v %v", ok, err)
	}
	pr2, pw2 := io.Pipe()
	go func() {
		cur := src.Cursor(interval.FullCircle)
		cur.Seek(p, key)
		defer cur.Close()
		_, _, err := Stream(pw2, cur, 1<<10, nil)
		pw2.CloseWithError(err)
	}()
	if _, err := ReadStream(bufio.NewReader(pr2), recv.apply, nil); err != nil {
		t.Fatal(err)
	}
	if recv.staging.Len() != 500 {
		t.Fatalf("after resume staged %d, want 500 (no loss, no duplicates)", recv.staging.Len())
	}
}

// TestReceiverRecover: a disk-backed receiver crashing mid-stream comes
// back with its staged prefix and manifest intact; after recovery the
// session completes and the staging directory is gone.
func TestReceiverRecover(t *testing.T) {
	base := t.TempDir() + "/wal"
	seg := interval.Segment{Start: 100, Len: 1 << 62}
	pred, succ := Peer{ID: 7, Point: 40, Addr: "sender:1"}, Peer{ID: 9, Point: uint64(seg.End()), Addr: "succ:1"}
	recv, err := Begin(base, Receiver{ID: 11, Role: RoleJoin, Seg: seg, Sender: "sender:1", Pred: pred, Succ: succ})
	if err != nil {
		t.Fatal(err)
	}
	items := []store.Item{
		{Point: 200, Key: "a", Value: []byte("1")},
		{Point: 300, Key: "b", Value: []byte("2")},
	}
	if err := recv.apply(items); err != nil {
		t.Fatal(err)
	}
	// Crash: drop the receiver without Finish/Abort.
	if err := recv.staging.Close(); err != nil {
		t.Fatal(err)
	}

	// A staging directory that never got its manifest is debris.
	debris := stagingDir(base, "00000000000000ff")
	if err := os.MkdirAll(debris, 0o755); err != nil {
		t.Fatal(err)
	}
	recs, err := Recover(base)
	if err != nil || len(recs) != 1 {
		t.Fatalf("Recover = %d receivers, %v; want the one session", len(recs), err)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("manifest-less staging directory survived recovery: %v", err)
	}
	r2 := recs[0]
	if r2.ID != 11 || r2.Role != RoleJoin || r2.Seg != seg || r2.Sender != "sender:1" || r2.Promoting() {
		t.Fatalf("recovered wrong manifest: %+v", r2)
	}
	if r2.Pred != pred || r2.Succ != succ {
		t.Fatalf("recovered ring neighbours %+v / %+v, want %+v / %+v", r2.Pred, r2.Succ, pred, succ)
	}
	if r2.staging.Len() != 2 {
		t.Fatalf("recovered %d staged items, want 2", r2.staging.Len())
	}
	p, key, ok, err := r2.resumeAfter()
	if err != nil || !ok || p != 300 || key != "b" {
		t.Fatalf("resume position = %v %q %v %v, want 300 b", p, key, ok, err)
	}
	live := store.NewMem()
	if err := r2.Promote(live); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-promotion (the crash-mid-promote replay).
	if err := r2.Promote(live); err != nil {
		t.Fatal(err)
	}
	if live.Len() != 2 {
		t.Fatalf("live has %d items after promote, want 2", live.Len())
	}
	if err := r2.Finish(); err != nil {
		t.Fatal(err)
	}
	if recs, err := Recover(base); err != nil || len(recs) != 0 {
		t.Fatalf("staging directory should be gone after Finish: %d receivers, %v", len(recs), err)
	}
}

// TestReceiverAbortAfterPromote: aborting a receiver that already
// promoted deletes exactly the session range from the live store — the
// sender never committed, so it still owns those items.
func TestReceiverAbortAfterPromote(t *testing.T) {
	live := store.NewMem()
	// The receiver's own pre-existing items, outside the session range.
	if err := live.Put(1, "mine", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	seg := interval.Segment{Start: 1000, Len: 1000}
	recv, err := Begin("", Receiver{ID: 13, Role: RoleLeave, Seg: seg, Sender: "s"})
	if err != nil {
		t.Fatal(err)
	}
	recv.apply([]store.Item{{Point: 1500, Key: "x", Value: []byte("v")}})
	if err := recv.Promote(live); err != nil {
		t.Fatal(err)
	}
	if err := recv.Abort(live); err != nil {
		t.Fatal(err)
	}
	if live.Len() != 1 {
		t.Fatalf("live has %d items after abort, want only the pre-existing one", live.Len())
	}
	if _, ok, _ := live.Get(1, "mine"); !ok {
		t.Fatal("abort deleted an item outside the session range")
	}
}

// TestSessionLifecycle: prepare/fence/commit/abort/expiry semantics the
// sender relies on.
func TestSessionLifecycle(t *testing.T) {
	ss, err := NewSessions(50*time.Millisecond, "")
	if err != nil {
		t.Fatal(err)
	}
	seg := interval.Segment{Start: 100, Len: 100}
	peer := Peer{ID: 5, Point: 100, Addr: "peer"}
	s, err := ss.Prepare(1, seg, RoleJoin, peer, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Prepare(0, interval.Segment{Start: 9000, Len: 1}, RoleJoin, peer, 0); err == nil {
		t.Fatal("zero session id accepted")
	}
	if !ss.Fenced(150) || ss.Fenced(50) {
		t.Fatal("fence does not match the session range")
	}
	if _, err := ss.Prepare(2, interval.Segment{Start: 150, Len: 10}, RoleJoin, peer, 0); err == nil {
		t.Fatal("overlapping prepare accepted")
	}
	if _, err := ss.Prepare(1, interval.Segment{Start: 5000, Len: 1}, RoleJoin, peer, 0); err == nil {
		t.Fatal("duplicate session id accepted")
	}
	if st := ss.Status(1); st != StateStreaming {
		t.Fatalf("status = %v, want streaming", st)
	}
	c, ok, logErr := ss.Commit(1)
	if !ok || logErr != nil || c != s || c.Role != RoleJoin || c.Peer != peer || c.RingVer != 3 {
		t.Fatalf("commit failed: %+v %v %v", c, ok, logErr)
	}
	select {
	case <-s.Done():
	default:
		t.Fatal("done channel not closed at commit")
	}
	if st := ss.Status(1); st != StateCommitted {
		t.Fatalf("status after commit = %v", st)
	}
	if ss.Fenced(150) {
		t.Fatal("fence survived commit")
	}
	if _, ok, _ := ss.Commit(1); ok {
		t.Fatal("double commit accepted")
	}
	// Commit wins: aborting a committed session reads committed and
	// changes nothing; aborting an unknown one reads unknown.
	if st, aborted := ss.Abort(1); st != StateCommitted || aborted || ss.Status(1) != StateCommitted {
		t.Fatalf("abort after commit = %v, %v; status %v", st, aborted, ss.Status(1))
	}
	if st, aborted := ss.Abort(77); st != StateUnknown || aborted {
		t.Fatalf("abort of an unknown session = %v, %v", st, aborted)
	}

	// Expiry: an abandoned streaming session aborts and unfences.
	if _, err := ss.Prepare(4, seg, RoleLeave, peer, 0); err != nil {
		t.Fatal(err)
	}
	if st, aborted := ss.Abort(4); st != StateUnknown || !aborted || ss.Fenced(150) {
		t.Fatalf("abort of a streaming session = %v, %v; fenced %v", st, aborted, ss.Fenced(150))
	}
	if _, err := ss.Prepare(3, seg, RoleJoin, peer, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	if ss.Fenced(150) {
		t.Fatal("fence survived expiry")
	}
	if st := ss.Status(3); st != StateUnknown {
		t.Fatalf("expired session status = %v, want unknown", st)
	}
	// A committed session survives the streaming TTL (receiver probes
	// after a crash must read committed, not unknown).
	if st := ss.Status(1); st != StateCommitted {
		t.Fatalf("committed session expired with the streaming TTL: %v", st)
	}
}

// TestStreamMemoryBounded: the transfer path's watermark is O(chunk), not
// O(range) — it barely moves while the range grows 20×, and at the
// production chunk budget a range 25× the budget streams within 4 chunks
// (the watermark is flat from there up: 830,173 B at 100k items, 832,961 B
// at 1M in BenchmarkHandoff).
func TestStreamMemoryBounded(t *testing.T) {
	val := make([]byte, 64)
	peak := func(items, chunkBytes int) int64 {
		src := store.NewMem()
		fill(t, src, items, val)
		recv, err := Begin("", Receiver{ID: uint64(items), Role: RoleJoin, Seg: interval.FullCircle, Sender: "t"})
		if err != nil {
			t.Fatal(err)
		}
		ResetMemWatermark()
		pr, pw := io.Pipe()
		go func() {
			cur := src.Cursor(interval.FullCircle)
			defer cur.Close()
			_, _, err := Stream(pw, cur, chunkBytes, nil)
			pw.CloseWithError(err)
		}()
		if _, err := ReadStream(bufio.NewReader(pr), recv.apply, nil); err != nil {
			t.Fatal(err)
		}
		return MemWatermark()
	}
	if small, big := peak(1000, 16<<10), peak(20000, 16<<10); big > 4*small {
		t.Fatalf("transfer memory grew with range size: %d items → %dB, %d items → %dB",
			1000, small, 20000, big)
	}
	if p := peak(100_000, DefaultChunkBytes); p > 4*DefaultChunkBytes {
		t.Fatalf("100k items peaked at %d B > %d B (4× the chunk budget)", p, 4*DefaultChunkBytes)
	}
}

// recordingStore is a staging store whose cursors check, at every batch
// request, that everything handed out so far already sits in dst.
type recordingStore struct {
	store.Store
	t        *testing.T
	dst      store.Store
	handed   int // items handed out by Next so far
	requests int
}

func (r *recordingStore) Cursor(seg interval.Segment) store.Cursor {
	return &recordingCursor{Cursor: r.Store.Cursor(seg), r: r}
}

type recordingCursor struct {
	store.Cursor
	r *recordingStore
}

func (c *recordingCursor) Next(max int) ([]store.Item, error) {
	r := c.r
	r.requests++
	if max > batchItems {
		r.t.Errorf("request %d asks for %d items, more than one batch (%d)", r.requests, max, batchItems)
	}
	if in := r.dst.Len(); in != r.handed {
		r.t.Errorf("request %d: %d items handed out but %d in the destination — a batch is outstanding", r.requests, r.handed, in)
	}
	items, err := c.Cursor.Next(max)
	r.handed += len(items)
	return items, err
}

// TestPromoteMemoryBounded: promoting a WAL staging store into a WAL live
// store holds one cursor batch, not the staged range (82 MB here): every
// batch is in the live store before the next is read from staging. A
// promote that collects the range first never asks the cursor for a second
// batch with the first one delivered, so it cannot pass.
func TestPromoteMemoryBounded(t *testing.T) {
	const n = 20_000
	recv, err := Begin(t.TempDir(), Receiver{ID: 1, Role: RoleJoin, Seg: interval.FullCircle, Sender: "t"})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, recv.staging, n, make([]byte, 4<<10))
	live, err := store.OpenLog(t.TempDir(), store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	rec := &recordingStore{Store: recv.staging, t: t, dst: live}
	recv.staging = rec
	if err := recv.Promote(live); err != nil {
		t.Fatal(err)
	}
	if want := n/batchItems + 1; rec.requests < want {
		t.Fatalf("Promote read staging in %d cursor batches, want at least %d", rec.requests, want)
	}
	if live.Len() != n || recv.staging.Len() != 0 {
		t.Fatalf("promoted %d of %d items, %d left staged", live.Len(), n, recv.staging.Len())
	}
	if err := recv.Finish(); err != nil {
		t.Fatal(err)
	}
}
