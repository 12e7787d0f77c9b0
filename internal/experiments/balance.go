package experiments

import (
	"fmt"
	"math"

	"condisc/internal/interval"
	"condisc/internal/metrics"
	"condisc/internal/partition"
	"condisc/internal/workload"
)

// segStats returns (min·n, max·n, ρ) for a ring — segment lengths
// normalized so the perfectly smooth value is 1.
func segStats(r *partition.Ring) (minN, maxN, rho float64) {
	min, max := r.SegmentLens()
	n := float64(r.N())
	scale := math.Ldexp(1, -64)
	return float64(min) * scale * n, float64(max) * scale * n, r.Smoothness()
}

// Lemma41SingleChoice reproduces Lemma 4.1: uniform IDs give max segment
// Θ(log n / n) and min segment as small as Θ(1/n²).
func Lemma41SingleChoice(cfg Config) Result {
	t := metrics.NewTable("n", "max·n", "log n", "min·n", "min·n²")
	for _, n := range []int{cfg.size(1024), cfg.size(4096), cfg.size(16384)} {
		rng := cfg.rng(uint64(30 + n))
		r := partition.Grow(partition.New(), n, partition.SingleChooser, rng)
		minN, maxN, _ := segStats(r)
		t.AddRow(n, maxN, math.Log2(float64(n)), minN, minN*float64(n))
	}
	return Result{Table: t,
		Notes: []string{"max·n tracks log n; min·n² = Θ(1) reproduces the 1/n² shortest segment."}}
}

// Lemma42ImprovedChoice reproduces Lemma 4.2: splitting the sampled
// segment at its middle lifts the minimum to Θ(1/(n log n)).
func Lemma42ImprovedChoice(cfg Config) Result {
	t := metrics.NewTable("n", "max·n", "min·n", "1/log n")
	for _, n := range []int{cfg.size(1024), cfg.size(4096), cfg.size(16384)} {
		rng := cfg.rng(uint64(31 + n))
		r := partition.Grow(partition.New(), n, partition.ImprovedChooser, rng)
		minN, maxN, _ := segStats(r)
		t.AddRow(n, maxN, minN, 1/math.Log2(float64(n)))
	}
	return Result{Table: t}
}

// Lemma43MultipleChoice reproduces Lemma 4.3: t·log n probes keep the
// shortest segment above 1/(4n) and the decomposition constant-smooth.
func Lemma43MultipleChoice(cfg Config) Result {
	t := metrics.NewTable("n", "probes t", "min·n", "≥1/4?", "max·n", "ρ")
	for _, n := range []int{cfg.size(1024), cfg.size(4096), cfg.size(16384)} {
		for _, probes := range []int{1, 2, 4} {
			rng := cfg.rng(uint64(32+n) + uint64(probes))
			r := partition.Grow(partition.New(), n, partition.MultipleChooser(probes), rng)
			minN, maxN, rho := segStats(r)
			t.AddRow(n, probes, minN, minN >= 0.25, maxN, rho)
		}
	}
	return Result{Table: t}
}

// Thm44SelfCorrection reproduces Theorem 4.4: from an adversarial initial
// configuration, n Multiple Choice insertions shrink the largest segment
// to O(1/n).
func Thm44SelfCorrection(cfg Config) Result {
	n := cfg.size(4096)
	rng := cfg.rng(33)
	// Adversarial start: m points crammed into [0, 2^-16).
	r := partition.New()
	for i := 0; i < 128; i++ {
		r.Insert(interval.Point(uint64(i) << 32))
	}
	_, maxBefore, _ := segStats(r)
	t := metrics.NewTable("inserted", "max·n", "ρ")
	t.AddRow(0, maxBefore, r.Smoothness())
	for _, frac := range []int{4, 2, 1} {
		target := 128 + n/frac
		partition.Grow(r, target-r.N(), partition.MultipleChooser(4), rng)
		_, maxN, rho := segStats(r)
		t.AddRow(r.N(), maxN, rho)
	}
	return Result{Table: t,
		Notes: []string{"max·n collapses from Θ(m) to O(1) as Multiple Choice points arrive."}}
}

// BucketChurn reproduces §4.1: the bucket scheme keeps the decomposition
// smooth under sustained joins AND leaves, where naive predecessor
// absorption degrades.
func BucketChurn(cfg Config) Result {
	n := cfg.size(4096)
	rng := cfg.rng(34)
	events := workload.ChurnTrace(4*n, 0.5, rng)

	// Bucket scheme.
	b := partition.NewBucketRing(n, 8, rng)
	for _, e := range events {
		if e.Join {
			b.Join(rng)
		} else {
			b.Leave(interval.Point(rng.Uint64()))
		}
	}

	// Naive: single-choice joins, predecessor absorbs on leave.
	naive := partition.Grow(partition.New(), n, partition.SingleChooser, rng)
	for _, e := range events {
		if e.Join {
			partition.Grow(naive, 1, partition.SingleChooser, rng)
		} else if naive.N() > 2 {
			naive.RemoveAt(naive.Cover(interval.Point(rng.Uint64())))
		}
	}
	_, naiveMax, naiveRho := segStats(naive)

	t := metrics.NewTable("scheme", "final n", "max·n", "ρ")
	t.AddRow("bucket scheme (§4.1)", b.N(), "—", b.Smoothness())
	t.AddRow("naive absorption", naive.N(), naiveMax, naiveRho)
	return Result{Table: t,
		Notes: []string{fmt.Sprintf("%d churn events (joins+leaves); bucket smoothness stays bounded.", len(events))}}
}
