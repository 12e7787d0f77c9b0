package partition

import (
	"math/rand/v2"
	"sync"
	"testing"

	"condisc/internal/interval"
)

// dumpSnap materializes a snapshot as (point, handle) pairs in ring order.
func dumpSnap(s *Snapshot) (pts []interval.Point, hs []Handle) {
	for i := 0; i < s.N(); i++ {
		pts = append(pts, s.Point(i))
		hs = append(hs, s.HandleAt(i))
	}
	return
}

// TestSnapshotImmutableUnderChurn takes a snapshot, then churns the live
// ring hard enough to split, merge, and drop chunks, publishing often;
// every snapshot must keep answering exactly as of its publish.
func TestSnapshotImmutableUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	r := New()
	for i := 0; i < 4096; i++ {
		r.Insert(interval.Point(rng.Uint64()))
	}
	snap := r.Snapshot()
	if snap.Epoch() != 0 {
		t.Fatalf("pre-publish snapshot epoch = %d, want 0", snap.Epoch())
	}
	wantPts, wantHs := dumpSnap(snap)

	// Churn: enough removes to force merges/drops, enough inserts to split,
	// publishing along the way as serial churn does after every event.
	type published struct {
		s   *Snapshot
		pts []interval.Point
		hs  []Handle
	}
	snaps := []published{{snap, wantPts, wantHs}}
	for i := 0; i < 11500; i++ {
		if i < 3500 {
			r.RemoveAt(int(rng.Uint64() % uint64(r.N())))
		} else {
			r.Insert(interval.Point(rng.Uint64()))
		}
		if i%97 == 0 {
			s := r.Publish()
			pts, hs := dumpSnap(s)
			snaps = append(snaps, published{s, pts, hs})
		}
	}
	s2 := r.Publish()
	if s2.Epoch() != uint64(len(snaps)) {
		t.Fatalf("publish epoch = %d, want %d", s2.Epoch(), len(snaps))
	}
	if got := r.Snapshot(); got != s2 {
		t.Fatalf("Snapshot() did not return the latest publish")
	}

	for _, p := range snaps {
		gotPts, gotHs := dumpSnap(p.s)
		if len(gotPts) != len(p.pts) {
			t.Fatalf("epoch %d snapshot N changed: %d -> %d", p.s.Epoch(), len(p.pts), len(gotPts))
		}
		for i := range p.pts {
			if gotPts[i] != p.pts[i] || gotHs[i] != p.hs[i] {
				t.Fatalf("epoch %d snapshot mutated at rank %d: (%d,%d) -> (%d,%d)",
					p.s.Epoch(), i, p.pts[i], p.hs[i], gotPts[i], gotHs[i])
			}
		}
	}
}

// TestSnapshotQueriesMatchRing checks every snapshot read method against
// the live Ring answer on a quiescent ring.
func TestSnapshotQueriesMatchRing(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	for _, n := range []int{1, 2, 3, 17, 1000} {
		r := New()
		for r.N() < n {
			r.Insert(interval.Point(rng.Uint64()))
		}
		s := r.Publish()
		if s.N() != r.N() {
			t.Fatalf("n=%d: snapshot N=%d", n, s.N())
		}
		for i := 0; i < n; i++ {
			if s.Point(i) != r.Point(i) || s.HandleAt(i) != r.HandleAt(i) {
				t.Fatalf("n=%d: pair %d differs", n, i)
			}
			if s.Segment(i) != r.Segment(i) {
				t.Fatalf("n=%d: segment %d differs", n, i)
			}
			if s.Successor(i) != r.Successor(i) || s.Predecessor(i) != r.Predecessor(i) {
				t.Fatalf("n=%d: succ/pred %d differ", n, i)
			}
		}
		for trial := 0; trial < 200; trial++ {
			p := interval.Point(rng.Uint64())
			if s.Cover(p) != r.Cover(p) {
				t.Fatalf("n=%d: Cover(%d) differs", n, p)
			}
			if s.CoverHandle(p) != r.CoverHandle(p) {
				t.Fatalf("n=%d: CoverHandle(%d) differs", n, p)
			}
			if s.SegmentOf(p) != r.SegmentOf(p) {
				t.Fatalf("n=%d: SegmentOf(%d) differs", n, p)
			}
			arc := interval.Segment{Start: p, Len: rng.Uint64() >> 40}
			sh := s.CoverHandlesOfArc(arc)
			rh := r.CoverHandlesOfArc(arc)
			if len(sh) != len(rh) {
				t.Fatalf("n=%d: CoverHandlesOfArc(%v) length differs", n, arc)
			}
			for k := range sh {
				if sh[k] != rh[k] {
					t.Fatalf("n=%d: CoverHandlesOfArc(%v) differs at %d", n, arc, k)
				}
			}
		}
	}
}

// TestSnapshotConcurrentReaders hammers snapshots from reader goroutines
// while the owner churns and publishes — the race detector is the real
// assertion here; the readers also self-check basic invariants.
func TestSnapshotConcurrentReaders(t *testing.T) {
	r := New()
	rng := rand.New(rand.NewPCG(13, 0))
	for i := 0; i < 2000; i++ {
		r.Insert(interval.Point(rng.Uint64()))
	}
	r.Publish()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rr := rand.New(rand.NewPCG(17, seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Snapshot()
				p := interval.Point(rr.Uint64())
				i := s.Cover(p)
				if i < 0 || i >= s.N() {
					t.Errorf("Cover out of range: %d of %d", i, s.N())
					return
				}
				seg := s.SegmentOf(p)
				if seg.Len != 0 && !seg.Contains(p) {
					t.Errorf("SegmentOf(%d) = %v does not contain p", p, seg)
					return
				}
				_ = s.CoverHandle(p)
				_ = s.Segment(i)
			}
		}(uint64(g))
	}

	for wave := 0; wave < 300; wave++ {
		for k := 0; k < 8; k++ {
			if rng.Uint64()%2 == 0 || r.N() < 100 {
				r.Insert(interval.Point(rng.Uint64()))
			} else {
				r.RemoveAt(int(rng.Uint64() % uint64(r.N())))
			}
		}
		r.Publish()
	}
	close(stop)
	wg.Wait()
}
