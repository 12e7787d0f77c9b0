package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the number is a handful of outliers, not a
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// samples. ok is false — and the value must not be printed — when fewer
// than minBeyond samples lie beyond it.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], n-1-idx >= minBeyond
}

func sortedCopy(v []int64) []int64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

// median returns the middle value of v (mean of the two middle values for
// an even count); 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timed is one observation with the time it completed, both in ns.
type timed struct{ at, v int64 }

// sliceIndex places time at into one of k equal slices of [start, end);
// -1 when it falls outside.
func sliceIndex(at, start, end int64, k int) int {
	if at < start || at >= end {
		return -1
	}
	return int((at - start) * int64(k) / (end - start))
}

// secondBest returns the second-lowest of v, or the second-highest when
// higher is better; with fewer than three values, the best (0 if none).
//
// Why not the median: on this box the whole machine runs up to 20 % slower
// for seconds to minutes at a time, and that interference only ever takes
// speed away. The good end of the per-slice values therefore estimates the
// code's own speed, the middle estimates the neighbours' mood. The best
// value itself is one lucky slice; the second best needs two.
func secondBest(v []float64, higherIsBetter bool) float64 {
	s := slices.Sorted(slices.Values(v))
	if higherIsBetter {
		slices.Reverse(s)
	}
	switch len(s) {
	case 0:
		return 0
	case 1, 2:
		return s[0]
	}
	return s[1]
}

// sliceRates cuts [start, end) into k equal time slices and returns each
// slice's completions per second.
func sliceRates(ends []int64, start, end int64, k int) []float64 {
	counts := make([]float64, k)
	for _, at := range ends {
		if i := sliceIndex(at, start, end, k); i >= 0 {
			counts[i]++
		}
	}
	per := float64(end-start) / float64(k) / 1e9
	for i := range counts {
		counts[i] /= per
	}
	return counts
}

// slicePercentiles cuts [start, end) into k equal time slices and returns
// each slice's own q-quantile. ok is false if any slice has fewer than
// minBeyond samples beyond its percentile.
func slicePercentiles(obs []timed, start, end int64, q float64, k int) (vals []float64, ok bool) {
	parts := make([][]int64, k)
	for _, o := range obs {
		if i := sliceIndex(o.at, start, end, k); i >= 0 {
			parts[i] = append(parts[i], o.v)
		}
	}
	for _, p := range parts {
		v, pok := percentile(sortedCopy(p), q)
		if !pok {
			return nil, false
		}
		vals = append(vals, float64(v))
	}
	return vals, true
}

// sliceMedians returns the per-slice medians at the most slices, up to
// maxSlices, at which every slice has minBeyond samples beyond its median;
// nil if the sample does not support even one slice.
func sliceMedians(obs []timed, start, end int64, maxSlices int) []float64 {
	for k := maxSlices; k >= 1; k-- {
		if mids, ok := slicePercentiles(obs, start, end, 0.5, k); ok {
			return mids
		}
	}
	return nil
}

// tailRatio is how far the tail sits above the typical request: the median,
// over time slices, of the slice's q-quantile divided by the same slice's
// median. Both halves of each ratio come from the same seconds, so the
// machine's mood cancels — measured here, p99 alone spread up to 28 %
// across runs, p99/p50 under 6 %. It uses the most slices, up to
// maxSlices, at which every slice has minBeyond samples beyond its
// q-quantile, and also returns the median of the slice q-quantiles.
func tailRatio(obs []timed, start, end int64, q float64, maxSlices int) (ratio, tail float64, used int, ok bool) {
	for k := maxSlices; k >= 1; k-- {
		tails, tok := slicePercentiles(obs, start, end, q, k)
		mids, mok := slicePercentiles(obs, start, end, 0.5, k)
		if !tok || !mok {
			continue
		}
		ratios := make([]float64, k)
		for i := range ratios {
			ratios[i] = tails[i] / mids[i]
		}
		return median(ratios), median(tails), k, true
	}
	return 0, 0, 0, false
}

// hopSlope fits latency = a + b·hops and returns b, the cost of one more
// hop. The fit is least squares over one point per hop count — that hop
// count's median latency, weighted by its sample count — so the slope
// describes the same typical request op_p50_us does and a few multi-
// millisecond stragglers cannot tilt it. Hop counts with fewer than
// minBeyond samples are left out; ok is false with fewer than two points.
func hopSlope(hops []int, lat []int64) (slope float64, ok bool) {
	byHops := map[int][]int64{}
	for i, h := range hops {
		byHops[h] = append(byHops[h], lat[i])
	}
	var sw, sx, sy, sxx, sxy float64
	points := 0
	for h, ls := range byHops {
		if len(ls) < minBeyond {
			continue
		}
		s := sortedCopy(ls)
		w, x, y := float64(len(s)), float64(h), float64(s[len(s)/2])
		sw += w
		sx += w * x
		sy += w * y
		sxx += w * x * x
		sxy += w * x * y
		points++
	}
	den := sw*sxx - sx*sx
	if points < 2 || den == 0 {
		return 0, false
	}
	return (sw*sxy - sx*sy) / den, true
}

// relDiff is |a−b| as a share of their mean — the A/A spread of two runs.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / ((math.Abs(a) + math.Abs(b)) / 2)
}
