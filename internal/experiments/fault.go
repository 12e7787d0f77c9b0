package experiments

import (
	"math"

	"condisc/internal/interval"
	"condisc/internal/metrics"
	"condisc/internal/overlap"
)

// Thm63SimpleLookup reproduces Theorem 6.3: the overlapping DHT's Simple
// Lookup has path length ≤ log n + O(1), Θ(log n) degree, and Θ(log n/n)
// congestion.
func Thm63SimpleLookup(cfg Config) Result {
	t := metrics.NewTable("n", "avg path", "max path", "log n + O(1)",
		"max degree (sampled)", "max load / log n")
	for _, n := range []int{cfg.size(1024), cfg.size(4096)} {
		rng := cfg.rng(uint64(50 + n))
		o := overlap.Build(n, 1, rng)
		o.ResetLoad()
		var paths metrics.Histogram
		lookups := 4 * n
		for i := 0; i < lookups; i++ {
			path, ok := o.SimpleLookup(rng.IntN(n), interval.Point(rng.Uint64()), rng)
			if ok {
				paths.AddInt(len(path) - 1)
			}
		}
		maxDeg := 0
		for i := 0; i < 64; i++ {
			if d := o.DegreeOf(rng.IntN(n)); d > maxDeg {
				maxDeg = d
			}
		}
		var maxLoad int64
		for _, l := range o.Load {
			if l > maxLoad {
				maxLoad = l
			}
		}
		logN := math.Log2(float64(n))
		t.AddRow(n, paths.Mean(), paths.Max(), logN+8, maxDeg,
			float64(maxLoad)/float64(lookups/n)/logN)
	}
	return Result{Table: t}
}

// Thm64FailStop reproduces Theorem 6.4: under random fail-stop faults with
// small p, every surviving server locates every item; larger p needs the
// §6 replication knob (bigger q arcs).
func Thm64FailStop(cfg Config) Result {
	n := cfg.size(4096)
	t := metrics.NewTable("p", "mult", "failed", "lookup success", "avg path")
	for _, row := range []struct {
		p    float64
		mult int
	}{{0.05, 1}, {0.1, 1}, {0.2, 1}, {0.3, 1}, {0.3, 2}, {0.5, 3}} {
		rng := cfg.rng(uint64(51 + int(row.p*100) + row.mult))
		o := overlap.Build(n, row.mult, rng)
		failed := o.FailRandom(row.p, rng)
		var paths metrics.Histogram
		ok, total := 0, 0
		for i := 0; i < 1000; i++ {
			src := rng.IntN(n)
			if !o.Alive(src) {
				continue
			}
			total++
			path, good := o.SimpleLookup(src, interval.Point(rng.Uint64()), rng)
			if good {
				ok++
				paths.AddInt(len(path) - 1)
			}
		}
		t.AddRow(row.p, row.mult, failed, float64(ok)/float64(total), paths.Mean())
	}
	return Result{Table: t,
		Notes: []string{"success = 1.0 at small p; at p=0.3–0.5 the mult knob (bigger q) restores it — the paper's 'adjust the q values' remark."}}
}

// Thm66FMR reproduces Theorem 6.6: the false-message-resistant lookup
// decodes correct data under random byzantine injection with O(log n)
// time and O(log³ n) messages; a single-path lookup corrupts at rate
// ~1-(1-p)^hops for contrast.
func Thm66FMR(cfg Config) Result {
	n := cfg.size(4096)
	logN := math.Log2(float64(n))
	t := metrics.NewTable("p byz", "FMR success", "single-path clean", "avg msgs", "log³ n", "avg hops")
	for _, p := range []float64{0.05, 0.1, 0.15, 0.2} {
		rng := cfg.rng(uint64(52 + int(p*100)))
		o := overlap.Build(n, 1, rng)
		o.SetByzantine(p, rng)
		okFMR := 0
		var msgs, hops metrics.Histogram
		const trials = 400
		for i := 0; i < trials; i++ {
			res := o.FMRLookup(rng.IntN(n), interval.Point(rng.Uint64()))
			if res.OK {
				okFMR++
			}
			msgs.AddInt(res.Messages)
			hops.AddInt(res.Hops)
		}
		// Contrast: a simple lookup is clean only if every hop is honest.
		clean := 0
		for i := 0; i < trials; i++ {
			path, ok := o.SimpleLookup(rng.IntN(n), interval.Point(rng.Uint64()), rng)
			if !ok {
				continue
			}
			good := true
			for _, v := range path[1:] {
				if o.IsByzantine(v) {
					good = false
					break
				}
			}
			if good {
				clean++
			}
		}
		t.AddRow(p, float64(okFMR)/trials, float64(clean)/trials,
			msgs.Mean(), logN*logN*logN, hops.Mean())
	}
	return Result{Table: t}
}
