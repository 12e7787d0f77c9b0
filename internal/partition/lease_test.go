package partition

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"condisc/internal/interval"
)

// overlapChecker is the shared oracle the concurrency tests hang the
// mutual-exclusion property on: every goroutine registers its span set
// while it "holds" the lease, and registration fails the test if any
// already-registered set overlaps.
type overlapChecker struct {
	mu   sync.Mutex
	held map[int][]interval.Segment
	errs []string
}

func (oc *overlapChecker) enter(id int, spans []interval.Segment) {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	for other, os := range oc.held {
		if SpansOverlap(os, spans) {
			oc.errs = append(oc.errs,
				time.Now().Format("15:04:05.000")+": overlapping leases held concurrently")
			_ = other
		}
	}
	if oc.held == nil {
		oc.held = map[int][]interval.Segment{}
	}
	oc.held[id] = spans
}

func (oc *overlapChecker) exit(id int) {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	delete(oc.held, id)
}

// spinAcquire retries TryAcquire until admitted — the test-side stand-in
// for the batch executor's wave deferral.
func spinAcquire(ls *Leases, spans ...interval.Segment) *Lease {
	for {
		if l, ok := ls.TryAcquire(spans...); ok {
			return l
		}
		runtime.Gosched()
	}
}

// TestOverlappingLeasesNeverConcurrent is the mutual-exclusion property:
// many goroutines acquire seeded random span sets (deliberately clustered
// so conflicts are common); at no instant may two overlapping span sets
// both be held. Run with -race.
func TestOverlappingLeasesNeverConcurrent(t *testing.T) {
	ls := NewLeases()
	oc := &overlapChecker{}
	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), uint64(w)*977+13))
			for r := 0; r < rounds; r++ {
				// Clustered starts: only 64 distinct buckets, so overlap
				// probability per pair is high.
				spans := make([]interval.Segment, 1+rng.IntN(3))
				for i := range spans {
					start := interval.Point(rng.Uint64N(64) << 58)
					spans[i] = interval.Segment{Start: start, Len: 1 << 57}
				}
				l := spinAcquire(ls, spans...)
				oc.enter(w, spans)
				if rng.IntN(4) == 0 {
					time.Sleep(time.Microsecond)
				}
				oc.exit(w)
				ls.Release(l)
			}
		}(w)
	}
	wg.Wait()
	for _, e := range oc.errs {
		t.Error(e)
	}
	if got := len(ls.held); got != 0 {
		t.Fatalf("%d leases leaked", got)
	}
}

// TestTryAcquireRefusesOverlap pins the non-blocking admission the batch
// executor uses: an overlapping TryAcquire fails without blocking, a
// disjoint one succeeds, and release makes the arc available again.
func TestTryAcquireRefusesOverlap(t *testing.T) {
	ls := NewLeases()
	a, ok := ls.TryAcquire(interval.Segment{Start: 100, Len: 100})
	if !ok {
		t.Fatal("first acquire refused")
	}
	if _, ok := ls.TryAcquire(interval.Segment{Start: 150, Len: 10}); ok {
		t.Fatal("overlapping TryAcquire admitted")
	}
	if _, ok := ls.TryAcquire(interval.Segment{Start: 0, Len: 50}, interval.Segment{Start: 199, Len: 10}); ok {
		t.Fatal("multi-span TryAcquire with one overlapping arc admitted")
	}
	b, ok := ls.TryAcquire(interval.Segment{Start: 200, Len: 100})
	if !ok {
		t.Fatal("disjoint TryAcquire refused")
	}
	ls.Release(a)
	c, ok := ls.TryAcquire(interval.Segment{Start: 150, Len: 10})
	if !ok {
		t.Fatal("arc still held after release")
	}
	ls.Release(b)
	ls.Release(c)
	ls.Release(c) // double release is a no-op
	if got := len(ls.held); got != 0 {
		t.Fatalf("%d leases leaked", got)
	}
}

// TestFullCircleLeaseSerializesEverything: a full-circle span conflicts
// with any other span (the tiny-ring / wrapped-arc fallback of LeaseSpan
// must serialize the whole batch).
func TestFullCircleLeaseSerializesEverything(t *testing.T) {
	ls := NewLeases()
	full, ok := ls.TryAcquire(interval.FullCircle)
	if !ok {
		t.Fatal("full-circle acquire refused")
	}
	if _, ok := ls.TryAcquire(interval.Segment{Start: 5, Len: 1}); ok {
		t.Fatal("span admitted alongside a full-circle lease")
	}
	ls.Release(full)
}

// TestLeaseSpanCoversChangedRegion: the span set always contains the
// changed region, its preimage arc, and arcs covering its images — and
// two LeaseSpans over well-separated regions of a large smooth ring are
// disjoint (the parallelism exists at all).
func TestLeaseSpanCoversChangedRegion(t *testing.T) {
	r := EquallySpaced(4096)
	seg := r.Segment(100)
	spans := r.LeaseSpan(seg, 2)
	containsPoint := func(p interval.Point) bool {
		for _, s := range spans {
			if s.Contains(p) {
				return true
			}
		}
		return false
	}
	for _, p := range []interval.Point{seg.Start, seg.Mid(), seg.End() - 1, seg.End(),
		seg.BackImage().Start, seg.BackImage().Mid(),
		seg.Half().Start, seg.Half().Mid(), seg.HalfPlus().Start, seg.HalfPlus().Mid()} {
		if !containsPoint(p) {
			t.Errorf("LeaseSpan misses point %d", uint64(p))
		}
	}
	// Disjointness across the ring: segment 100's neighbourhood and
	// segment 2100's neighbourhood must not conflict at n=4096.
	far := r.LeaseSpan(r.Segment(2100), 2)
	if SpansOverlap(spans, far) {
		t.Fatal("well-separated lease spans overlap; no parallelism possible")
	}
}
