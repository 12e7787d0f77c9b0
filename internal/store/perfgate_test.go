//go:build perfgate

package store

import (
	"flag"
	"math"
	"testing"
)

// The perfgate tests are timing assertions, kept out of `go test ./...`
// because a loaded machine fails them for no fault of the code; CI runs
// them as `go test -p 1 -tags perfgate -run '^TestGate' ./...`. Each takes
// the best of three testing.Benchmark runs: noise here only ever adds time.

// bestOf3 returns the lowest reading of three runs of f at a fixed
// iteration count. The count is fixed because an iteration's untimed
// restore step costs several times its timed part, and the default
// (iterate until a second of timed work) runs that for minutes.
func bestOf3(t *testing.T, iters string, f func(*testing.B), read func(testing.BenchmarkResult) float64) float64 {
	t.Helper()
	if err := flag.Set("test.benchtime", iters); err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		r := testing.Benchmark(f)
		if r.N == 0 {
			t.Fatal("benchmark failed")
		}
		best = min(best, read(r))
	}
	return best
}

func nsPerOp(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }

// TestGateStoreSplitFlat: splitting a fixed 1024-item range must not grow
// with the items that stay behind — item migration is O(log S + moved).
func TestGateStoreSplitFlat(t *testing.T) {
	small := bestOf3(t, "100x", func(b *testing.B) { benchStoreSplit(b, 10_000) }, nsPerOp)
	big := bestOf3(t, "100x", func(b *testing.B) { benchStoreSplit(b, 1_000_000) }, nsPerOp)
	t.Logf("StoreSplit: 10k %.0f ns, 1M %.0f ns, ratio %.2fx", small, big, big/small)
	if big > 1.5*small {
		t.Fatalf("StoreSplit grew %.2fx from 10k to 1M resident items (bar 1.5x)", big/small)
	}
}

// TestGateCompactionOffPutPath: an inline compaction costs the triggering
// Put its copy, fsync, rename and unlinks — 3–6 ms in this benchmark; a
// background one leaves the slowest Put well under 1.5 ms.
func TestGateCompactionOffPutPath(t *testing.T) {
	worst := bestOf3(t, "1x", BenchmarkLogPutDuringCompaction,
		func(r testing.BenchmarkResult) float64 { return r.Extra["worst-put-us"] })
	t.Logf("LogPutDuringCompaction: worst Put %.0f us", worst)
	if worst > 1500 {
		t.Fatalf("worst Put %.0f us > 1500 us: compaction work is back on the put path", worst)
	}
}
