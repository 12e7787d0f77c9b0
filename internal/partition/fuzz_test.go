package partition

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"condisc/internal/interval"
)

// FuzzArcLeases feeds the lease registry adversarial span sets — random
// starts and lengths, wrapped arcs, duplicates, zero-length (full-circle)
// spans — acquired concurrently by several goroutines, and asserts the
// two safety properties:
//
//  1. no overlap admission: at no instant do two goroutines hold
//     overlapping span sets (checked against an independent oracle);
//  2. no deadlock: every acquisition completes. Span sets are acquired
//     atomically and a refused caller holds nothing while it retries, so
//     no ordering discipline over ring positions is required of callers;
//     the watchdog enforces that this actually holds for arbitrary span
//     geometry.
//
// Input encoding: each 17-byte record is one lease — goroutine (1 byte,
// mod workers), then two (start, len) u64 pairs... truncated records are
// dropped. Each goroutine acquires its leases in input order.
func FuzzArcLeases(f *testing.F) {
	f.Add([]byte{})
	// Disjoint arcs on two goroutines.
	f.Add(leaseRec(0, 0, 1<<32, 1<<40, 1<<32))
	f.Add(append(leaseRec(0, 0, 1<<60, 1<<61, 1<<60), leaseRec(1, 1<<62, 1<<60, 1<<63, 1<<60)...))
	// Identical span sets on three goroutines: maximal contention.
	f.Add(append(append(leaseRec(0, 5, 100, 5, 100), leaseRec(1, 5, 100, 5, 100)...), leaseRec(2, 5, 100, 5, 100)...))
	// Wrapped arc vs the arc it wraps onto, plus a full-circle span.
	f.Add(append(leaseRec(0, ^uint64(0)-10, 100, 0, 0), leaseRec(1, 50, 25, 1<<63, 1)...))
	// Interleaved adjacent arcs (ends touching: must NOT conflict).
	f.Add(append(leaseRec(0, 0, 100, 200, 100), leaseRec(1, 100, 100, 300, 100)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		const workers = 4
		const rec = 1 + 4*8
		type leaseReq struct{ spans []interval.Segment }
		var reqs [workers][]leaseReq
		total := 0
		for off := 0; off+rec <= len(data) && total < 64; off += rec {
			w := int(data[off]) % workers
			spans := make([]interval.Segment, 0, 2)
			for i := 0; i < 2; i++ {
				base := off + 1 + i*16
				start := binary.LittleEndian.Uint64(data[base:])
				ln := binary.LittleEndian.Uint64(data[base+8:])
				spans = append(spans, interval.Segment{Start: interval.Point(start), Len: ln})
			}
			reqs[w] = append(reqs[w], leaseReq{spans: spans})
			total++
		}

		ls := NewLeases()
		oc := &overlapChecker{}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, rq := range reqs[w] {
					l := spinAcquire(ls, rq.spans...)
					oc.enter(w, rq.spans)
					oc.exit(w)
					ls.Release(l)
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("deadlock: lease acquisitions did not complete (%d leases)", total)
		}
		for _, e := range oc.errs {
			t.Error(e)
		}
		if got := len(ls.held); got != 0 {
			t.Fatalf("%d leases leaked", got)
		}
	})
}

// leaseRec encodes one fuzz input record.
func leaseRec(w byte, s1, l1, s2, l2 uint64) []byte {
	b := make([]byte, 1+4*8)
	b[0] = w
	binary.LittleEndian.PutUint64(b[1:], s1)
	binary.LittleEndian.PutUint64(b[9:], l1)
	binary.LittleEndian.PutUint64(b[17:], s2)
	binary.LittleEndian.PutUint64(b[25:], l2)
	return b
}
