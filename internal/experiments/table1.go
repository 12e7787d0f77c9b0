package experiments

import (
	"fmt"
	"math"

	"condisc/internal/baselines"
	"condisc/internal/metrics"
)

// Table1 reproduces the paper's Table 1: expected path length, congestion
// and linkage for every lookup scheme, measured over random lookups on
// equal-sized networks. Paper rows (asymptotics): Chord log n, (log n)/n,
// log n; Tapestry the same; CAN d·n^{1/d}, d·n^{1/d-1}, d; Small Worlds
// log² n, (log² n)/n, O(1); Viceroy log n, (log n)/n, O(1); Distance
// Halving log_d n, (log_d n)/n, O(d).
func Table1(cfg Config) Result {
	n := cfg.size(2048)
	lookups := 4 * n
	rng := cfg.rng(1)

	schemes := []baselines.Scheme{
		baselines.NewChord(n, rng),
		baselines.NewPrefix(n, rng),
		baselines.NewKademlia(n, rng),
		baselines.NewCAN(n, 2, rng),
		baselines.NewCAN(n, 3, rng),
		baselines.NewSmallWorld(n, rng),
		baselines.NewButterfly(n, rng),
		baselines.NewDistanceHalving(n, 2, true, rng),
		baselines.NewDistanceHalving(n, 8, true, rng),
		baselines.NewDistanceHalving(n, 16, true, rng),
	}

	t := metrics.NewTable("scheme", "n", "avg path", "max path",
		"congestion×n/log n", "linkage", "paper path", "paper linkage")
	paper := map[string][2]string{
		"Chord":                 {"log n", "log n"},
		"Tapestry(prefix)":      {"log n", "log n"},
		"Kademlia":              {"log n", "log n"},
		"CAN(d=2)":              {"d·n^(1/d)", "2d"},
		"CAN(d=3)":              {"d·n^(1/d)", "2d"},
		"SmallWorld":            {"log² n", "O(1)"},
		"Viceroy(butterfly)":    {"log n", "O(1)"},
		"DistanceHalving(∆=2)":  {"log n", "O(1)"},
		"DistanceHalving(∆=8)":  {"log_8 n", "O(8)"},
		"DistanceHalving(∆=16)": {"log_16 n", "O(16)"},
	}
	for _, s := range schemes {
		st := baselines.Measure(s, lookups, rng)
		p := paper[st.Scheme]
		t.AddRow(st.Scheme, st.N, st.AvgPath, st.MaxPath, st.NormCong, st.Linkage, p[0], p[1])
	}
	return Result{
		Table: t,
		Notes: []string{
			"congestion×n/log n ≈ 1 reproduces the (log n)/n column;",
			"CAN's larger values reproduce its d·n^{1/d-1} row,",
			"and the ∆-sweep shows the paper's degree/path tradeoff (log_∆ n).",
			"log2(n) = " + fmtF(math.Log2(float64(n))),
		},
	}
}

func fmtF(v float64) string {
	return fmt.Sprintf("%.1f", v)
}
