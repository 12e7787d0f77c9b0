package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	v := make([]int64, 1009)
	for i := range v {
		v[i] = int64(i + 1)
	}
	// p99 of 1009 sorted samples is rank ceil(998.91) = 999: ten lie beyond.
	if got, ok := percentile(v, 0.99); !ok || got != 999 {
		t.Errorf("p99 of 1..1009 = %d, %v; want 999, true", got, ok)
	}
	// p99 of 999 samples is rank 990: nine beyond, refused.
	if got, ok := percentile(v[:999], 0.99); ok {
		t.Errorf("p99 of 999 samples reported (%d) with nine beyond", got)
	}
	if got, ok := percentile(v[:21], 0.5); !ok || got != 11 {
		t.Errorf("median of 1..21 = %d, %v; want 11, true", got, ok)
	}
	if _, ok := percentile(v[:19], 0.5); ok {
		t.Error("median of 19 samples reported with nine beyond")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestSecondBestSliceIgnoresSlowSlices(t *testing.T) {
	// 100 completions per 1 s slice, except one slice stalled down to 10
	// and one lucky slice at 130.
	per := []int{100, 100, 130, 10, 100}
	var ends []int64
	for s, n := range per {
		for i := 0; i < n; i++ {
			ends = append(ends, int64(s)*1e9+int64(i)*1e6)
		}
	}
	ends = append(ends, -5, 5e9) // outside the window: not counted
	rates := sliceRates(ends, 0, 5e9, 5)
	for i, n := range per {
		if rates[i] != float64(n) {
			t.Fatalf("slice rates %v, want %v", rates, per)
		}
	}
	// Neither the stall nor the single lucky slice is reported.
	if got := secondBest(rates, true); got != 100 {
		t.Errorf("second highest rate %v, want 100", got)
	}
	if got := secondBest([]float64{900, 1400, 880, 950}, false); got != 900 {
		t.Errorf("second lowest latency %v, want 900", got)
	}
	if got := secondBest([]float64{7}, false); got != 7 {
		t.Errorf("second best of one value %v, want 7", got)
	}
	if got := secondBest([]float64{9, 7}, false); got != 7 {
		t.Errorf("second best of two values %v, want the best, 7", got)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %v, want 2.5", m)
	}
}

func TestTailRatioCancelsASlowSpell(t *testing.T) {
	// 5000 samples over 5 s; in each second latencies run 1..1000 µs, and
	// the whole fourth second is 3× slower. The p99 of that second triples,
	// its p99/p50 does not.
	obs := make([]timed, 5000)
	for i := range obs {
		v := int64(i%1000+1) * 1000
		if i/1000 == 3 {
			v *= 3
		}
		obs[i] = timed{at: int64(i) * 1e6, v: v}
	}
	ratio, tail, k, ok := tailRatio(obs, 0, 5e9, 0.99, 5)
	if !ok || k != 5 || ratio != 1.98 || tail != 990_000 {
		t.Errorf("tailRatio = %v, %v over %d slices (ok=%v); want 1.98, 990000 over 5", ratio, tail, k, ok)
	}
	// 2000 samples leave 400 per slice at five slices — four short of ten
	// beyond a p99 — so the slice count drops until every slice has 1000.
	if _, _, k, ok := tailRatio(obs[:2000], 0, 2e9, 0.99, 5); !ok || k != 2 {
		t.Errorf("p99 ratio used %d slices (ok=%v), want 2", k, ok)
	}
	if _, _, _, ok := tailRatio(obs[:500], 0, 5e8, 0.99, 5); ok {
		t.Error("p99 ratio of 500 samples reported")
	}
	if mids, ok := slicePercentiles(obs, 0, 5e9, 0.5, 10); !ok || len(mids) != 10 {
		t.Errorf("ten slice medians: %v, ok=%v", mids, ok)
	}
	// A slow spell leaves few samples: 60 support three slice medians (a
	// median needs 20 samples for ten beyond it), 15 support none.
	if mids := sliceMedians(obs[:60], 0, 6e7, 10); len(mids) != 3 {
		t.Errorf("60 samples gave %d slice medians, want 3", len(mids))
	}
	if mids := sliceMedians(obs[:15], 0, 15e6, 10); mids != nil {
		t.Errorf("15 samples gave slice medians %v, want none", mids)
	}
}

func TestHopSlope(t *testing.T) {
	// latency = 150 µs + 200 µs per hop, one 50 ms straggler per hop count:
	// the fit must recover the slope the typical request sees.
	var hops []int
	var lat []int64
	for h := 0; h <= 6; h++ {
		for i := 0; i < 40; i++ {
			hops = append(hops, h)
			lat = append(lat, int64(150_000+200_000*h+i-20))
		}
		hops, lat = append(hops, h), append(lat, 50_000_000)
	}
	// A hop count seen only three times is left out of the fit.
	for i := 0; i < 3; i++ {
		hops, lat = append(hops, 9), append(lat, 1)
	}
	slope, ok := hopSlope(hops, lat)
	if !ok || math.Abs(slope-200_000) > 100 {
		t.Errorf("slope %v (ok=%v), want 200000 ns per hop", slope, ok)
	}
	if _, ok := hopSlope([]int{2, 2, 2}, []int64{1, 2, 3}); ok {
		t.Error("slope reported from a single hop count")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100}, // 0: root
		{parent: 0, start: 10, end: 40},  // 1
		{parent: 0, start: 30, end: 60},  // 2: overlaps 1 by 10
		{parent: 0, start: 90, end: 130}, // 3: runs past the root, clipped
		{parent: 1, start: 15, end: 20},  // 4: grandchild, counts against 1 only
	}
	got := selfTimes(spans)
	// Root: 100 − [10,60) − [90,100) = 40. Span 1: 30 − 5 = 25.
	want := []int64{40, 25, 30, 40, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestOpenLoopChargesLatenessFromDueTime(t *testing.T) {
	// A fake clock: events are due every 100, the second event takes 250,
	// the others 10. Sleeping advances the clock exactly to the due time.
	var clock int64
	now := func() int64 { return clock }
	sleep := func(d int64) { clock += d }
	cost := []int64{10, 250, 10, 10, 10}
	late, took := openLoop(0, 500, 100, now, sleep, func(i int) { clock += cost[i] })
	// Event 1 starts at 100 and ends at 350: events 2 and 3 (due 200, 300)
	// start late, back to back; event 4 (due 400) is on time again.
	wantLate := []int64{0, 0, 150, 60, 0}
	wantTook := []int64{10, 250, 160, 70, 10}
	if len(late) != 5 || len(took) != 5 {
		t.Fatalf("ran %d events, want 5 (due before end only)", len(late))
	}
	for i := range wantLate {
		if late[i] != wantLate[i] || took[i] != wantTook[i] {
			t.Errorf("event %d: late %d took %d, want late %d took %d", i, late[i], took[i], wantLate[i], wantTook[i])
		}
	}
}

func TestValuesFollowSeedKeyVersion(t *testing.T) {
	a, b := make([]byte, 133), make([]byte, 133)
	fillValue(a, 7, 3, 2)
	fillValue(b, 7, 3, 2)
	if !bytes.Equal(a, b) {
		t.Fatal("the same (seed, key, version) gave different bytes")
	}
	for _, other := range [][3]int{{8, 3, 2}, {7, 4, 2}, {7, 3, 3}} {
		fillValue(b, uint64(other[0]), other[1], int32(other[2]))
		if bytes.Equal(a, b) {
			t.Errorf("(7,3,2) and %v gave the same bytes", other)
		}
	}
	if keyName(1, 5) == keyName(2, 5) || len(keyName(1, 5)) != len(keyName(9, 123456)) {
		t.Error("keys must depend on the seed and have one width")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// program prints from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d, %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %+v", i, doc.Workloads[i], w)
		}
	}
	setup := false
	for i, d := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, j, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		setup = setup || d.name == "setup_s"
	}
	if !setup {
		t.Error("setup_s must be an end-to-end metric")
	}
	for i, d := range perLayer {
		if j := doc.PerLayer[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per-layer %d: %+v vs %+v", i, j, d)
		}
	}
}

// TestSmoke runs all four workloads, traced, in the -smoke configuration:
// an API drift in internal/p2p or the simulator breaks here, not in the
// next benchmark run. The four run side by side, so the numbers mean
// nothing; what is checked is that every output check passes and every
// metric of the traced set is produced.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := config{workload: w.name, seed: 11, seconds: 0.4, trace: true, smoke: true,
				outDir: t.TempDir(), sc: smokeScale}
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() || rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d mismatches=%d notes=%v",
					rep.correct(), rep.attempted, rep.failed, rep.mismatches, rep.notes)
			}
			var res struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(rep.resultLine()), &res); err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("result line has %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			live := w.name != "sim_read"
			if got := rep.get("p2p.wire.rpcs_per_op"); (got > 0) != live {
				t.Errorf("p2p.wire.rpcs_per_op = %v on %s", got, w.name)
			}
			if got := rep.get("p2p.replication.repl_puts_per_put"); (got > 0) != (w.name == "live_put_k3") {
				t.Errorf("p2p.replication.repl_puts_per_put = %v on %s", got, w.name)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, w.name+".trace.json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}
