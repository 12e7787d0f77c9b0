package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrentSum checks that no Add is lost or double-counted
// at any fan-out, from the single shard every goroutine contends on up to
// the 64-shard cap (run under -race in CI).
func TestCounterConcurrentSum(t *testing.T) {
	const goroutines, per = 16, 10_000
	for _, shards := range []int{1, 8, maxCounterShards} {
		c := newCounter("x_total", shards)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					c.Inc()
				}
			}()
		}
		wg.Wait()
		if got := c.Value(); got != goroutines*per {
			t.Fatalf("%d shards: Counter sum = %d, want %d", shards, got, goroutines*per)
		}
	}
	r := NewRegistry()
	c := r.Counter("x_total")
	if len(c.shards) != counterShards {
		t.Fatalf("registry counter has %d shards, want %d", len(c.shards), counterShards)
	}
	if r.Counter("x_total") != c {
		t.Fatal("re-registering a name must return the same counter")
	}
}

func TestShardCount(t *testing.T) {
	for procs, want := range map[int]int{1: 4, 2: 8, 3: 16, 4: 16, 8: 32, 16: 64, 17: 64, 256: 64} {
		if got := shardCount(procs); got != want {
			t.Errorf("shardCount(%d) = %d, want %d", procs, got, want)
		}
	}
}

func TestHistogramBucketsAndMax(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hops")
	for _, v := range []int64{0, 1, 2, 3, 5, 9, 9, -4} {
		h.Observe(v)
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	if got := h.Max(); got != 9 {
		t.Fatalf("Max = %d, want 9", got)
	}
	if got := h.Sum(); got != 29 { // -4 clamps to 0
		t.Fatalf("Sum = %d, want 29", got)
	}
	s := h.snapshot()
	// Buckets: le=0 (0 and the clamped -4), le=1 (1), le=3 (2,3), le=7 (5), le=15 (9,9).
	want := []Bucket{{0, 2}, {1, 1}, {3, 2}, {7, 1}, {15, 2}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
}

func TestSetEnabledDropsRecords(t *testing.T) {
	r := NewRegistry()
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h")
	SetEnabled(false)
	c.Inc()
	g.Set(7)
	h.Observe(3)
	r.Emitf("k", "dropped")
	SetEnabled(true)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || len(r.Events()) != 0 {
		t.Fatal("disabled telemetry must drop every record")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("re-enabled telemetry must record again")
	}
}

func TestEventRingBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < ringCap+10; i++ {
		r.Emitf("k", "e%d", i)
	}
	ev := r.Events()
	if len(ev) != ringCap {
		t.Fatalf("ring holds %d events, want %d", len(ev), ringCap)
	}
	if ev[0].Detail != "e10" || ev[len(ev)-1].Detail != "e265" {
		t.Fatalf("ring window [%s .. %s], want [e10 .. e265]", ev[0].Detail, ev[len(ev)-1].Detail)
	}
	if got := r.EventsDropped(); got != 10 {
		t.Fatalf("EventsDropped = %d, want 10", got)
	}
}

func TestInjectedClock(t *testing.T) {
	fixed := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	SetClock(func() time.Time { return fixed })
	defer SetClock(nil)
	r := NewRegistry()
	r.Emitf("k", "x")
	if at := r.Events()[0].At; !at.Equal(fixed) {
		t.Fatalf("event at %v, want injected %v", at, fixed)
	}
	g := r.Gauge("epoch")
	g.SetStamped(5)
	fixed = fixed.Add(3 * time.Second)
	if age := g.Age(); age != 3*time.Second {
		t.Fatalf("Age = %v, want 3s", age)
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter(`rpc_total{op="get"}`).Add(2)
	r.Counter(`rpc_total{op="put"}`).Add(3)
	r.Gauge("epoch").Set(9)
	r.RegisterCollector("age_seconds", func() float64 { return 1.5 })
	h := r.Histogram("hops")
	h.Observe(1)
	h.Observe(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE rpc_total counter\n",
		`rpc_total{op="get"} 2` + "\n",
		`rpc_total{op="put"} 3` + "\n",
		"# TYPE epoch gauge\n", "epoch 9\n",
		"age_seconds 1.5\n",
		"# TYPE hops histogram\n",
		`hops_bucket{le="1"} 1` + "\n",
		`hops_bucket{le="3"} 2` + "\n",
		`hops_bucket{le="+Inf"} 2` + "\n",
		"hops_sum 3\n", "hops_count 2\n",
		"# TYPE hops_max gauge\n", "hops_max 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, out)
		}
	}
	// The TYPE line of a family must precede its series.
	if strings.Index(out, "# TYPE rpc_total counter") > strings.Index(out, `rpc_total{op="get"}`) {
		t.Fatalf("TYPE line after series:\n%s", out)
	}
}

func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(4)
	r.Gauge("g").Set(-2)
	r.Histogram("h").Observe(6)
	r.Emitf("wave", "publish epoch=3")
	s := r.Snapshot()
	if s.Counters["c"] != 4 || s.Gauges["g"] != -2 {
		t.Fatalf("snapshot = %+v", s)
	}
	if hs := s.Histograms["h"]; hs.Count != 1 || hs.Max != 6 || hs.Mean() != 6 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	if len(s.Events) != 1 || s.Events[0].Kind != "wave" {
		t.Fatalf("events = %+v", s.Events)
	}
}

// The hot-path contract: recording allocates nothing. This is the unit-
// level half of the guarantee; the telemetryhot analyzer checks the
// source, and the CI bench gate checks the end-to-end read path.
func TestHotPathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(-1)
		h.Observe(42)
	}); n != 0 {
		t.Fatalf("hot-path records allocated %.1f times per run, want 0", n)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 1023))
	}
}
