package experiments

import (
	"time"

	"condisc/internal/dhgraph"
	"condisc/internal/metrics"
	"condisc/internal/partition"
)

// ChurnLocality measures the blast radius and wall-clock cost of the
// incremental join/leave engine against a from-scratch rebuild: the §2.1
// claim that membership changes are local operations, verified on the
// maintained data structures rather than the abstract graph. "touched" is
// the number of servers whose edge lists were recomputed (Theorem 2.2
// bounds it by the O(ρ·∆) neighbourhood of the changed segment).
func ChurnLocality(cfg Config) Result {
	t := metrics.NewTable("n", "ρ", "avg touched", "max touched", "inc µs/op", "rebuild µs", "speedup")
	for _, n := range []int{cfg.size(1024), cfg.size(4096), cfg.size(16384)} {
		rng := cfg.rng(uint64(n))
		ring := partition.Grow(partition.New(), n, partition.MultipleChooser(2), rng)
		g := dhgraph.Build(ring, 2)

		const ops = 100
		var touched metrics.Histogram
		start := time.Now()
		for i := 0; i < ops; i++ {
			if _, ok := g.Insert(partition.MultipleChoice(ring, rng, 2)); !ok {
				continue
			}
			touched.AddInt(g.LastTouched())
			g.Remove(rng.IntN(ring.N()))
			touched.AddInt(g.LastTouched())
		}
		incUS := float64(time.Since(start).Microseconds()) / (2 * ops)

		start = time.Now()
		rebuilds := 3
		for i := 0; i < rebuilds; i++ {
			dhgraph.Build(ring, 2)
		}
		rebuildUS := float64(time.Since(start).Microseconds()) / float64(rebuilds)

		speedup := rebuildUS / incUS
		t.AddRow(n, ring.Smoothness(), touched.Mean(), touched.Max(), incUS, rebuildUS, speedup)
	}
	return Result{
		Table: t,
		Notes: []string{
			"touched = servers whose edge lists were recomputed; O(ρ·∆) by Thm 2.2, independent of n",
			"incremental cost is O(ρ·∆·log n) — handle-keyed lists, no renumber pass; rebuild grows as O(n·ρ + n log n)",
		},
	}
}
