package p2p

// Satellite tests for the stream idle deadline: a sender that goes
// silent mid-stream (a crash, not a clean disconnect) must not pin the
// receiver forever — the per-frame idle deadline (streamIdleTimeout)
// bounds the wait, and the session then resolves cleanly: a join keeps
// its staging for recovery, a leave absorption rolls back and frees the
// staged range.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"condisc/internal/handoff"
	"condisc/internal/interval"
	"condisc/internal/store"
)

// oneStreamFrame builds the wire bytes of the first chunk frame of a
// 5-item stream over seg (chunkBytes=1: one item per frame).
func oneStreamFrame(t *testing.T, seg interval.Segment) []byte {
	t.Helper()
	ms := store.NewMem()
	for i := 0; i < 5; i++ {
		p := seg.Start + interval.Point(uint64(i)+1)
		if err := ms.Put(p, fmt.Sprintf("it-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cur := ms.Cursor(seg)
	defer cur.Close()
	lw := &limitWriter{max: 1}
	_, _, _ = handoff.Stream(lw, cur, 1, func() {})
	if len(lw.buf) == 0 {
		t.Fatal("no frame produced")
	}
	return lw.buf
}

// limitWriter accepts max writes, then errors (stopping the stream).
type limitWriter struct {
	buf []byte
	max int
	n   int
}

func (lw *limitWriter) Write(p []byte) (int, error) {
	if lw.n >= lw.max {
		return 0, errors.New("write limit reached")
	}
	lw.n++
	lw.buf = append(lw.buf, p...)
	return len(p), nil
}

// silentSender is a fake stream source: it accepts connections, reads
// the request, optionally emits one valid frame on the FIRST
// connection, and then holds every connection open without writing —
// exactly what a sender frozen mid-stream looks like on the wire.
func silentSender(t *testing.T, firstFrame []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				var req request
				if err := readRequest(c, &req); err != nil {
					t.Errorf("fake sender: %v", err)
				}
				if firstFrame != nil && first.CompareAndSwap(true, false) {
					_, _ = c.Write(firstFrame)
				}
				<-done // silence: no more frames, no close
			}(conn)
		}
	}()
	t.Cleanup(func() { close(done); ln.Close() })
	return ln.Addr().String()
}

func TestReceiverTimesOutOnSilentSender(t *testing.T) {
	// The receiver of a stream whose sender goes silent before the first
	// frame must abort within the idle deadline — generous (10× the RPC
	// deadline) but finite.
	const rpcT = 50 * time.Millisecond
	sender := silentSender(t, nil)
	n, err := NewNode("127.0.0.1:0", 11, WithRPCTimeout(rpcT))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	seg := interval.Segment{Start: interval.FromFloat(0.25), Len: 1 << 40}
	rec, err := handoff.Begin("", handoff.Receiver{ID: 0x51, Role: handoff.RoleJoin, Seg: seg, Sender: sender})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	err = sessionWire{n, rec.Sender, rec.ID}.Stream(false, 0, "", func([]store.Item) error { return nil })
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("pull from a silent sender succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
	// The idle deadline is 10×rpcTimeout = 500ms: the receiver must wait
	// at least most of it (it is not the plain RPC deadline) and must
	// not wait far beyond it (it is not unbounded).
	if elapsed < streamIdleTimeout(rpcT)/2 {
		t.Fatalf("gave up after %v — the plain RPC deadline, not the idle deadline", elapsed)
	}
	if elapsed > 6*streamIdleTimeout(rpcT) {
		t.Fatalf("receiver hung %v against a silent sender", elapsed)
	}
	if err := rec.Abort(nil); err != nil {
		t.Fatalf("session did not abort cleanly: %v", err)
	}
}

func TestAbsorbFreesStagingWhenSenderDiesMidStream(t *testing.T) {
	// A leave absorption whose sender (the leaver) dies after one frame:
	// the receiver stages the partial range, times out waiting for the
	// next frame, exhausts its reconnect attempts, and rolls back —
	// nothing promoted, ring pointers untouched, staging freed from disk.
	const rpcT = 50 * time.Millisecond
	dir := filepath.Join(t.TempDir(), "pred")
	lg, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewNode("127.0.0.1:0", 12, WithStore(lg), WithRPCTimeout(rpcT))
	if err != nil {
		t.Fatal(err)
	}
	defer pred.Close()
	x := interval.FromFloat(0.5)
	pred.StartFirst(x)

	seg := interval.Segment{Start: x, Len: 1 << 40}
	sender := silentSender(t, oneStreamFrame(t, seg))
	req := request{Op: opLeave, Session: 0x61, SrcAddr: sender,
		SegStart: uint64(seg.Start), SegLen: seg.Len,
		Target: uint64(seg.End()), NewAddr: pred.Addr(), NewID: pred.id, NewPoint: uint64(x)}
	pred.absorbLeave(req)

	if got := pred.NumItems(); got != 0 {
		t.Fatalf("%d staged items were promoted into the live store", got)
	}
	px, pend, _, succ := ringState(pred)
	if px != x || pend != x || succ.Addr != pred.Addr() {
		t.Fatalf("ring pointers moved: x=%v end=%v succ=%s", px, pend, succ.Addr)
	}
	staging, err := filepath.Glob(dir + ".handoff-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(staging) != 0 {
		t.Fatalf("staged range not freed after sender death: %v", staging)
	}
}

var _ io.Writer = (*limitWriter)(nil)
