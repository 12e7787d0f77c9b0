//go:build perfgate

package condisc

import (
	"flag"
	"testing"
)

// The perfgate tests are timing assertions, kept out of `go test ./...`
// because a loaded machine fails them for no fault of the code; CI runs
// them as `go test -p 1 -tags perfgate -run '^TestGate' ./...`. Each takes
// the best of three testing.Benchmark runs: noise here only ever adds time.

// bestOf3 returns the fastest of three runs of f at a fixed iteration
// count. The count is fixed because every iteration of these benchmarks
// pays an untimed restore step several times its timed part, and the
// default (iterate until a second of timed work) runs that for minutes.
func bestOf3(t *testing.T, iters string, f func(*testing.B)) testing.BenchmarkResult {
	t.Helper()
	if err := flag.Set("test.benchtime", iters); err != nil {
		t.Fatal(err)
	}
	var best testing.BenchmarkResult
	for i := 0; i < 3; i++ {
		r := testing.Benchmark(f)
		if r.N == 0 {
			t.Fatal("benchmark failed")
		}
		if i == 0 || nsPerOp(r) < nsPerOp(best) {
			best = r
		}
	}
	return best
}

func nsPerOp(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }

// TestGateChurnCostFlatInN: nothing on the join/leave path may scan, shift
// or renumber Θ(n) state, so n=100k costs within 3× of n=1k.
func TestGateChurnCostFlatInN(t *testing.T) {
	for _, op := range []struct {
		name string
		run  func(*testing.B, int)
	}{{"Join", benchJoin}, {"Leave", benchLeave}} {
		small := nsPerOp(bestOf3(t, "100x", func(b *testing.B) { op.run(b, 1_000) }))
		big := nsPerOp(bestOf3(t, "100x", func(b *testing.B) { op.run(b, 100_000) }))
		t.Logf("%s: n=1k %.0f ns, n=100k %.0f ns, ratio %.2fx", op.name, small, big, big/small)
		if big > 3*small {
			t.Errorf("%s grew %.2fx from n=1k to n=100k (bar 3x)", op.name, big/small)
		}
	}
}

// TestGateReadsWaitFreeUnderChurn: the read path takes no churn lock, so
// 16 serial joins and leaves running back to back may cost reads at most
// ~30% of their quiescent throughput (CPU shared with the churn goroutine,
// snapshot retries at epoch flips).
func TestGateReadsWaitFreeUnderChurn(t *testing.T) {
	quiescent := nsPerOp(bestOf3(t, "20000x", func(b *testing.B) { readUnderChurnLoop(b, 0) }))
	under := bestOf3(t, "20000x", func(b *testing.B) { readUnderChurnLoop(b, 16) })
	if under.Extra["waves"] == 0 {
		t.Fatal("the churn goroutine completed no batches: nothing was measured")
	}
	churning := nsPerOp(under)
	t.Logf("reads: quiescent %.0f ns, under 16 serial joins and leaves %.0f ns, throughput %.2fx", quiescent, churning, quiescent/churning)
	if churning > quiescent/0.7 {
		t.Fatalf("reads under 16 serial joins and leaves at %.2fx quiescent throughput (bar 0.70x)", quiescent/churning)
	}
}
