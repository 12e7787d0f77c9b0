package handoff

import (
	"bufio"
	"fmt"
	"io"
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
	recv, err := Begin("", 7, RoleJoin, interval.FullCircle, "test", nil)
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
	n, err := ReadStream(bufio.NewReader(pr), recv.Apply, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 || recv.Staged() != 1000 {
		t.Fatalf("streamed %d, staged %d, want 1000", n, recv.Staged())
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
	recv, err := Begin("", 9, RoleJoin, interval.FullCircle, "test", nil)
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
		return recv.Apply(items)
	}, nil)
	pr.CloseWithError(io.ErrClosedPipe)
	if err == nil {
		t.Fatal("first connection should have failed")
	}
	staged := recv.Staged()
	if staged == 0 || staged == 500 {
		t.Fatalf("want a partial stage, got %d", staged)
	}

	// Second connection: resume strictly after the staged prefix.
	p, key, ok, err := recv.ResumeAfter()
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
	if _, err := ReadStream(bufio.NewReader(pr2), recv.Apply, nil); err != nil {
		t.Fatal(err)
	}
	if recv.Staged() != 500 {
		t.Fatalf("after resume staged %d, want 500 (no loss, no duplicates)", recv.Staged())
	}
}

// TestReceiverRecover: a disk-backed receiver crashing mid-stream comes
// back with its staged prefix and manifest intact; after recovery the
// session completes and the staging directory is gone.
func TestReceiverRecover(t *testing.T) {
	dir := t.TempDir() + "/stage"
	seg := interval.Segment{Start: 100, Len: 1 << 62}
	recv, err := Begin(dir, 11, RoleJoin, seg, "sender:1", map[string]string{"pred_addr": "sender:1"})
	if err != nil {
		t.Fatal(err)
	}
	items := []store.Item{
		{Point: 200, Key: "a", Value: []byte("1")},
		{Point: 300, Key: "b", Value: []byte("2")},
	}
	if err := recv.Apply(items); err != nil {
		t.Fatal(err)
	}
	// Crash: drop the receiver without Finish/Abort.
	if err := recv.staging.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ID != 11 || r2.Role != RoleJoin || r2.Seg != seg || r2.Sender != "sender:1" {
		t.Fatalf("recovered wrong manifest: %+v", r2)
	}
	if r2.Meta["pred_addr"] != "sender:1" {
		t.Fatalf("recovered meta lost: %v", r2.Meta)
	}
	if r2.Staged() != 2 {
		t.Fatalf("recovered %d staged items, want 2", r2.Staged())
	}
	p, key, ok, err := r2.ResumeAfter()
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
	if _, err := Recover(dir); err == nil {
		t.Fatal("staging directory should be gone after Finish")
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
	recv, err := Begin("", 13, RoleLeave, seg, "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	recv.Apply([]store.Item{{Point: 1500, Key: "x", Value: []byte("v")}})
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
	ss := NewSessions(50 * time.Millisecond)
	seg := interval.Segment{Start: 100, Len: 100}
	s, err := ss.Prepare(1, seg, "peer", "meta")
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Fenced(150) || ss.Fenced(50) {
		t.Fatal("fence does not match the session range")
	}
	if _, err := ss.Prepare(2, interval.Segment{Start: 150, Len: 10}, "p", nil); err == nil {
		t.Fatal("overlapping prepare accepted")
	}
	if _, err := ss.Prepare(1, interval.Segment{Start: 5000, Len: 1}, "p", nil); err == nil {
		t.Fatal("duplicate session id accepted")
	}
	if st := ss.Status(1); st != StateStreaming {
		t.Fatalf("status = %v, want streaming", st)
	}
	c, ok := ss.Commit(1)
	if !ok || c != s || c.Meta != "meta" {
		t.Fatal("commit failed")
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
	if _, ok := ss.Commit(1); ok {
		t.Fatal("double commit accepted")
	}

	// Expiry: an abandoned streaming session aborts and unfences.
	if _, err := ss.Prepare(3, seg, "peer", nil); err != nil {
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
		recv, err := Begin("", uint64(items), RoleJoin, interval.FullCircle, "t", nil)
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
		if _, err := ReadStream(bufio.NewReader(pr), recv.Apply, nil); err != nil {
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
	recv, err := Begin(t.TempDir(), 1, RoleJoin, interval.FullCircle, "t", nil)
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
	if live.Len() != n || recv.Staged() != 0 {
		t.Fatalf("promoted %d of %d items, %d left staged", live.Len(), n, recv.Staged())
	}
	if err := recv.Finish(); err != nil {
		t.Fatal(err)
	}
}
