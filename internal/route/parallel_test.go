package route

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"condisc/internal/interval"
)

// TestParallelBulkAccounting: lookups running on several goroutines meter
// into the one shared load counter without losing a count — the merged
// load equals the sum of path elements — and every path keeps the
// Corollary 2.5 bound. Run with -race.
func TestParallelBulkAccounting(t *testing.T) {
	nw, _ := smoothNetwork(512, 2, 80)
	const workers, perWorker = 4, 1000
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		sumLen int
		maxLen int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m, s := nw.RandomLookups(perWorker, true, rand.New(rand.NewPCG(99, uint64(w))))
			mu.Lock()
			defer mu.Unlock()
			sumLen += s
			maxLen = max(maxLen, m)
		}(w)
	}
	wg.Wait()
	var sum int64
	for _, l := range nw.LoadMap() {
		sum += l
	}
	// Every path element is counted once; paths have len = hops+1.
	if want := int64(sumLen + workers*perWorker); sum != want {
		t.Fatalf("merged load %d != path elements %d", sum, want)
	}
	bound := math.Log2(512) + math.Log2(nw.G.Ring.Smoothness()) + 2
	if float64(maxLen) > bound {
		t.Fatalf("parallel max path %d > bound %.1f", maxLen, bound)
	}
}

func BenchmarkSequentialLookups(b *testing.B) {
	nw, rng := smoothNetwork(4096, 2, 84)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.FastLookup(rng.IntN(4096), interval.Point(rng.Uint64()))
	}
}
