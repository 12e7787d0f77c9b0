package experiments

import (
	"condisc/internal/emulate"
	"condisc/internal/metrics"
	"condisc/internal/partition"
)

// Thm71Emulation reproduces §7 / Theorem 7.1: every bounded-degree family
// is emulated in real time over a smooth decomposition — per-server load
// ≤ ρN/n+1, overlay degree ≤ load·d, plus the unknown-n variant whose
// union degree pays the 2dρ·log ρ factor.
func Thm71Emulation(cfg Config) Result {
	n := cfg.size(256)
	rng := cfg.rng(60)
	ring := partition.Grow(partition.New(), n, partition.MultipleChooser(2), rng)
	rho := ring.Smoothness()

	t := metrics.NewTable("family", "N_k", "max load", "ρN/n+1", "overlay deg",
		"deg bound", "edge mult", "connected", "union deg (unknown n)")
	for _, fam := range emulate.AllFamilies() {
		e := emulate.Build(fam, ring)
		unionDeg, covered := emulate.LocalEstimate(fam, ring, rho)
		if !covered {
			unionDeg = -1 // flag: true k missed (should not happen)
		}
		t.AddRow(fam.Name(), fam.Nodes(e.K), e.MaxLoad(), e.LoadBound(),
			e.Overlay().MaxDegree(), e.DegreeBound(), e.MaxEdgeMultiplicity(),
			e.ConnectedActive(), unionDeg)
	}
	return Result{Table: t,
		Notes: []string{"families: hypercube, de Bruijn, 2D torus, cube-connected cycles, wrapped butterfly."}}
}
