// Package experiments contains one driver per reproduced paper item —
// Table 1, Figures 1–4, every theorem-level claim, and the live-cluster
// studies — listed with their ids and titles in Index. The drivers are
// shared by cmd/condisc-bench (which prints paper-style tables) and the
// root bench_test.go (which regenerates each item under `go test -bench`).
package experiments

import (
	"math/rand/v2"

	"condisc/internal/dhgraph"
	"condisc/internal/metrics"
	"condisc/internal/partition"
	"condisc/internal/route"
)

// Config scales the experiments.
type Config struct {
	Seed uint64
	// Scale divides the default problem sizes (1 = paper-scale defaults,
	// larger = faster smoke runs).
	Scale int
}

// DefaultConfig is used by the CLI and benches.
var DefaultConfig = Config{Seed: 42, Scale: 1}

func (c Config) rng(salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(c.Seed+salt, c.Seed*0x9e3779b9+salt))
}

func (c Config) size(n int) int {
	if c.Scale <= 1 {
		return n
	}
	n /= c.Scale
	if n < 64 {
		n = 64
	}
	return n
}

// Result packages one experiment's output; its id and title are the
// Index entry's.
type Result struct {
	Table *metrics.Table
	Notes []string
}

// smoothNet builds a Multiple-Choice DH network of n servers.
func smoothNet(n int, delta uint64, rng *rand.Rand) *route.Network {
	ring := partition.Grow(partition.New(), n, partition.MultipleChooser(2), rng)
	return route.NewNetwork(dhgraph.Build(ring, delta))
}

// Index lists every experiment in run order: the one place an id and a
// title are given, and what a caller that wants only some experiments
// (condisc-bench -only, a sub-benchmark) selects from before anything runs.
var Index = []struct {
	ID, Title string
	Run       func(Config) Result
}{
	{"E1", "Table 1 — comparison of lookup schemes", Table1},
	{"E2", "Figure 1 — continuous DH edges", Fig1ContinuousMaps},
	{"E3", "Figure 2 — path tree layers, uniform entry", Fig2PathTree},
	{"E4", "Figure 3 — active tree mapped to servers", Fig3ActiveTreeMapping},
	{"E5", "Figure 4 — FMR flooded lookup", Fig4FMRLookup},
	{"E6", "Theorem 2.1 — edge count ≤ 3n-1", Thm21EdgeCount},
	{"E7", "Theorem 2.2 — degree bounds from smoothness", Thm22Degrees},
	{"E8", "Corollary 2.5 — Fast Lookup path length", Cor25FastLookupPath},
	{"E9", "Theorem 2.7 — Fast Lookup congestion Θ(log n/n)", Thm27Congestion},
	{"E10", "Theorem 2.8 — DH Lookup path length", Thm28DHLookupPath},
	{"E11", "Theorems 2.10/2.11 — permutation routing load", Thm210Permutation},
	{"E12", "Theorem 2.13 — degree vs path-length tradeoff", Thm213DegreeSweep},
	{"E13", "Obs 3.1 + Lemma 3.3 — active tree growth/collapse", Lemma33ActiveTree},
	{"E14", "Theorem 3.6 — single hotspot relieved", Thm36SingleHotspot},
	{"E15", "Theorem 3.8 — multiple hotspots (Zipf batch)", Thm38MultiHotspot},
	{"E16", "§3.4 — content update along the active tree", ContentUpdate},
	{"E17", "Lemma 4.1 — Single Choice segment extremes", Lemma41SingleChoice},
	{"E18", "Lemma 4.2 — Improved Single Choice", Lemma42ImprovedChoice},
	{"E19", "Lemma 4.3 — Multiple Choice smoothness", Lemma43MultipleChoice},
	{"E20a", "Theorem 4.4 — self-correction from adversarial start", Thm44SelfCorrection},
	{"E20", "§4.1 — bucket scheme under churn", BucketChurn},
	{"E21", "Lemma 5.3 — 2D Multiple Choice smoothness", Lemma53Smoothness2D},
	{"E22", "Corollary 5.2 — verified dynamic expander", Cor52Expander},
	{"E23", "Theorem 6.3 — overlapping DHT Simple Lookup", Thm63SimpleLookup},
	{"E24", "Theorem 6.4 — availability under random fail-stop", Thm64FailStop},
	{"E25", "Theorem 6.6 — false-message-resistant lookup", Thm66FMR},
	{"E26", "Theorem 7.1 — emulating general graph families", Thm71Emulation},
	{"E29", "§6.2 extension — erasure coding vs replication", ErasureVsReplication},
	{"E27", "§2.1 — cost of Join/Leave", JoinLeaveCost},
	{"E28", "§2.1 — churn locality: incremental join/leave vs full rebuild", ChurnLocality},
	{"E30", "storage layer — ordered stores make item migration a range move", StoreEngines},
	{"E31", "staleness vs stabilization interval under churn (TCP cluster)", StalenessVsStabilization},
	{"E32", "Zipf load skew on a live cluster, from scraped per-node metrics", ZipfLoadSkew},
	{"E33", "live invariant doctor vs adversarial leaves (smoothness breach detection)", DoctorAdversarialLeave},
	{"E34", "surviving ungraceful death — k-successor replication under mass crash (TCP cluster)", CrashFaultTolerance},
}

// All runs every experiment in Index order.
func All(cfg Config) []Result {
	out := make([]Result, len(Index))
	for i, e := range Index {
		out[i] = e.Run(cfg)
	}
	return out
}
