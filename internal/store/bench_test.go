package store

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"condisc/internal/interval"
)

// The split benchmark is the acceptance gate for the ordered-store design:
// the cost of moving a fixed-size range out of a store must not grow with
// the items that stay behind. The sweep is resident = 10k, 100k, 1M at a
// fixed 1024-item moved range; TestGateStoreSplitFlat (perfgate_test.go)
// fails if 1M costs more than 1.5× what 10k does.

const splitMoved = 1024

var (
	splitMu     sync.Mutex
	splitStores = map[int]*Mem{}
)

// splitStore builds (once per size) a Mem store with resident items at
// evenly spaced points, so a range of width moved·step holds exactly
// `moved` items.
func splitStore(b *testing.B, resident int) (*Mem, interval.Segment) {
	splitMu.Lock()
	defer splitMu.Unlock()
	step := ^uint64(0)/uint64(resident) + 1
	seg := interval.Segment{
		Start: interval.Point(uint64(resident/2) * step),
		Len:   splitMoved * step,
	}
	if s, ok := splitStores[resident]; ok {
		return s, seg
	}
	s := NewMem()
	val := []byte("sixteen-byte-val")
	for i := 0; i < resident; i++ {
		if err := s.Put(interval.Point(uint64(i)*step), fmt.Sprintf("k%09d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	splitStores[resident] = s
	return s, seg
}

var residentSizes = []struct {
	name string
	n    int
}{{"resident=10k", 10_000}, {"resident=100k", 100_000}, {"resident=1M", 1_000_000}}

// benchStoreSplit measures one SplitRange of a fixed 1024-item range per
// iteration (the merge restoring the store is untimed).
func benchStoreSplit(b *testing.B, resident int) {
	s, seg := splitStore(b, resident)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moved, err := s.SplitRange(seg)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if n := moved.Len(); n != splitMoved {
			b.Fatalf("split moved %d items, want %d", n, splitMoved)
		}
		if err := s.MergeFrom(moved); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkStoreSplit sweeps benchStoreSplit over the resident sizes. Flat
// across the sweep = item migration independent of store size.
func BenchmarkStoreSplit(b *testing.B) {
	for _, sz := range residentSizes {
		b.Run(sz.name, func(b *testing.B) { benchStoreSplit(b, sz.n) })
	}
}

// BenchmarkStorePutGet sweeps point writes and reads over both engines at
// a 64k-item working set (the log engine pays one WAL append per put and
// one pread per get).
func BenchmarkStorePutGet(b *testing.B) {
	const n = 65536
	step := ^uint64(0)/n + 1
	key := func(i int) string { return fmt.Sprintf("k%09d", i) }
	engines := []struct {
		name string
		open func(b *testing.B) Store
	}{
		{"engine=mem", func(b *testing.B) Store { return NewMem() }},
		{"engine=log", func(b *testing.B) Store {
			s, err := OpenLog(b.TempDir(), LogOptions{})
			if err != nil {
				b.Fatal(err)
			}
			return s
		}},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			s := eng.open(b)
			defer s.Close()
			val := []byte("sixteen-byte-val")
			for i := 0; i < n; i++ {
				if err := s.Put(interval.Point(uint64(i)*step), key(i), val); err != nil {
					b.Fatal(err)
				}
			}
			b.Run("op=put", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j := i % n
					if err := s.Put(interval.Point(uint64(j)*step), key(j), val); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("op=get", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j := (i * 7919) % n
					if _, ok, err := s.Get(interval.Point(uint64(j)*step), key(j)); !ok || err != nil {
						b.Fatalf("miss at %d: %v", j, err)
					}
				}
			})
		})
	}
}

// BenchmarkLogPutDuringCompaction measures what a writer pays while the
// WAL compacts behind it: 4 KiB overwrites over a 256 KiB live set, one
// every 150 µs (several times what a store sees under live_put_k3, yet
// slow enough that each compaction finishes before the next is due), until
// 20 compactions have run beside them; worst-put-us is the slowest single
// Put. When compaction ran inline, every triggering Put was that slow put
// (1.6–4.4 ms: the copy, an fsync, a rename and the unlinks); now it only
// starts a goroutine, and what is left is the file system briefly stalling
// an append while the old segments are unlinked.
func BenchmarkLogPutDuringCompaction(b *testing.B) {
	const (
		keys, compactions, maxPuts = 64, 20, 1 << 16
		every                      = 150 * time.Microsecond
	)
	val := make([]byte, 4096)
	var worst time.Duration
	for i := 0; i < b.N; i++ {
		s, err := OpenLog(b.TempDir(), LogOptions{})
		if err != nil {
			b.Fatal(err)
		}
		until := walCompactions.Value() + compactions
		for j := 0; walCompactions.Value() < until; j++ {
			if j == maxPuts {
				b.Fatalf("%d puts did not see %d compactions through", maxPuts, compactions)
			}
			k := j % keys
			t0 := time.Now()
			if err := s.Put(interval.Point(uint64(k)<<50), fmt.Sprintf("k%03d", k), val); err != nil {
				b.Fatal(err)
			}
			worst = max(worst, time.Since(t0))
			for time.Since(t0) < every { // spin: a sleep this short oversleeps tenfold
			}
		}
		s.Close()
	}
	b.ReportMetric(float64(worst.Microseconds()), "worst-put-us")
}
