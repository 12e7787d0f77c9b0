package condisc

// This file maps every table and figure of the paper (and each
// theorem-level experiment listed in experiments.Index) to a benchmark
// target: `go test -bench=BenchmarkExperiments/E1$` regenerates Table 1,
// and the other ids follow the Index. Each runs the shared experiment
// driver (internal/experiments) at a reduced scale so a full
// `go test -bench=.` completes in minutes; cmd/condisc-bench runs the same
// drivers at paper scale and prints the tables.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"condisc/internal/cache"
	"condisc/internal/dhgraph"
	"condisc/internal/experiments"
	"condisc/internal/route"
	"condisc/internal/store"
)

// benchCfg trades problem size for bench-loop friendliness.
var benchCfg = experiments.Config{Seed: 42, Scale: 4}

// BenchmarkExperiments regenerates every experiment in experiments.Index,
// one sub-benchmark per id, so a new experiment is benchmarked without an
// edit here.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Index {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r := e.Run(benchCfg); r.Table == nil {
					b.Fatal("experiment produced no table")
				}
			}
		})
	}
}

// BenchmarkCrashFaultTolerance regenerates the k=3 arm of E34 (mass
// ungraceful crash on the live TCP cluster) and reports the availability
// and loss numbers as custom metrics. Zero lost acked writes is a hard
// gate, not a trend.
func BenchmarkCrashFaultTolerance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		avail, lost, acked := experiments.CrashAvailabilityK3(benchCfg)
		if acked == 0 {
			b.Fatal("E34: no writes were acknowledged")
		}
		if lost > 0 {
			b.Fatalf("E34: %d of %d acked writes lost after crash repair", lost, acked)
		}
		b.ReportMetric(avail, "availability")
		b.ReportMetric(float64(lost), "lost-writes")
	}
}

// ---- churn benchmarks: incremental join/leave vs the full rebuild ----
//
// The incremental engine patches only the O(ρ·∆) servers around the changed
// segment and migrates only the split segment's items; the baseline below
// reproduces the seed's behaviour — rebuild the whole discrete graph, drop
// all cache state, and rehash every stored item — for the same DHT.
//
// BenchmarkJoin and BenchmarkLeave sweep n = 1k, 10k, 100k with a constant
// 10 items per server. The acceptance bar for the handle-keyed state model
// is that the per-op cost stays flat in n (within small-constant drift from
// the O(log n) factors): nothing in the join/leave path may scan, shift, or
// renumber Θ(n) state (TestGateChurnCostFlatInN, perfgate_test.go).

const itemsPerServer = 10

var (
	churnMu   sync.Mutex
	churnDHTs = map[int]*DHT{}
)

// benchChurnDHT builds (once per size) an n-server DHT holding 10n items,
// placing the items directly at their owners to keep setup time out of the
// way.
func benchChurnDHT(b *testing.B, n int) *DHT {
	churnMu.Lock()
	defer churnMu.Unlock()
	if d, ok := churnDHTs[n]; ok {
		return d
	}
	d := New(n, Options{Seed: 4242})
	for i := 0; i < n*itemsPerServer; i++ {
		k := fmt.Sprintf("item-%d", i)
		p := d.hash.Point(k)
		if err := d.storeAt(d.ring.CoverHandle(p)).Put(p, k, []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	churnDHTs[n] = d
	return d
}

var churnSizes = []struct {
	name string
	n    int
}{{"n=1k", 1_000}, {"n=10k", 10_000}, {"n=100k", 100_000}}

// benchJoin measures one incremental Join at size n (the paired Leave is
// untimed, keeping the network size stable).
func benchJoin(b *testing.B, n int) {
	d := benchChurnDHT(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := d.Join()
		b.StopTimer()
		if err := d.Leave(id); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// benchLeave measures one incremental Leave at size n (the paired Join is
// untimed).
func benchLeave(b *testing.B, n int) {
	d := benchChurnDHT(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id := d.Join()
		b.StartTimer()
		if err := d.Leave(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoin(b *testing.B) {
	for _, sz := range churnSizes {
		b.Run(sz.name, func(b *testing.B) { benchJoin(b, sz.n) })
	}
}

func BenchmarkLeave(b *testing.B) {
	for _, sz := range churnSizes {
		b.Run(sz.name, func(b *testing.B) { benchLeave(b, sz.n) })
	}
}

// ---- read-under-churn: the wait-free read path's acceptance bench ----
//
// BenchmarkReadUnderChurn measures Get throughput on a 100k-server DHT
// while a background goroutine runs batches of serial joins and leaves
// back to back, against the quiescent baseline on the same instance. The
// read path resolves owners against epoch snapshots and never takes the
// churn lock, so throughput under churn must stay within a small constant
// of quiescent — TestGateReadsWaitFreeUnderChurn (perfgate_test.go)
// requires reads under 16 serial joins and leaves at >= 0.7x quiescent.
// Caching is disabled: cache hits would measure the cache, not the
// snapshot-resolving owner read.

const readBenchKeys = 1024

var (
	readDHTOnce sync.Once
	readDHT     *DHT
)

// benchReadDHT builds (once) the 100k-server cacheless DHT with the read
// key universe placed directly at the owners.
func benchReadDHT() *DHT {
	readDHTOnce.Do(func() {
		d := New(100_000, Options{Seed: 2718, CacheThreshold: -1})
		for i := 0; i < readBenchKeys; i++ {
			k := fmt.Sprintf("read-%d", i)
			p := d.hash.Point(k)
			if err := d.storeAt(d.ring.CoverHandle(p)).Put(p, k, []byte("v")); err != nil {
				panic(err)
			}
		}
		readDHT = d
	})
	return readDHT
}

// readUnderChurnLoop runs b.N Gets; width > 0 keeps JoinBatch(width)
// followed by LeaveBatch of the same servers — 2·width serial churn
// events — running back to back in the background. The batch count is
// reported (as "waves") so a run where churn silently stalled is visible.
func readUnderChurnLoop(b *testing.B, width int) {
	d := benchReadDHT()
	stop := make(chan struct{})
	done := make(chan struct{})
	var waves int64
	if width > 0 {
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				ids := d.JoinBatch(width)
				if err := d.LeaveBatch(ids); err != nil {
					panic(err)
				}
				waves++
			}
		}()
	} else {
		close(done)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("read-%d", i%readBenchKeys)
		if _, _, ok := d.Get(i%100_000, key); !ok {
			b.Fatalf("Get(%s) missed under churn", key)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/sec")
	b.ReportMetric(float64(waves), "waves")
}

// BenchmarkReadUnderChurn sweeps the churn batch width; "quiescent" is the
// no-churn baseline.
func BenchmarkReadUnderChurn(b *testing.B) {
	b.Run("quiescent", func(b *testing.B) { readUnderChurnLoop(b, 0) })
	for _, width := range []int{16, 64} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) { readUnderChurnLoop(b, width) })
	}
}

// fullRebuild reproduces the seed's per-churn work: rebuild the discrete
// graph and network from scratch, recreate the caching system (discarding
// all §3 state), and rehash every stored item.
func fullRebuild(b *testing.B, d *DHT) {
	var old []store.Store
	d.stores.each(func(_ ServerID, s store.Store) { old = append(old, s) })
	d.net = route.NewNetwork(dhgraph.Build(d.ring, d.opts.Delta))
	if d.opts.Delta == 2 && d.opts.CacheThreshold >= 0 {
		c := d.opts.CacheThreshold
		if c == 0 {
			c = int(math.Log2(float64(d.ring.N()))) + 1
		}
		d.cache = cache.NewSystem(d.net, d.hash, c)
	} else {
		d.cache = nil
	}
	d.stores = storeTable{}
	for i := 0; i < d.ring.N(); i++ {
		d.stores.set(d.ring.HandleAt(i), d.newStore())
	}
	for _, m := range old {
		eachItem(b, m, func(it store.Item) {
			d.storeAt(d.ring.CoverHandle(it.Point)).Put(it.Point, it.Key, it.Value)
		})
	}
}

// BenchmarkJoinFullRebuild is the seed's baseline at n=10k: every churn
// event rebuilds the graph and rehashes all items. Compare against
// BenchmarkJoin/n=10k.
func BenchmarkJoinFullRebuild(b *testing.B) {
	d := benchChurnDHT(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := d.Join()
		fullRebuild(b, d)
		b.StopTimer()
		if err := d.Leave(id); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkLeaveFullRebuild is the leave-side baseline at n=10k.
func BenchmarkLeaveFullRebuild(b *testing.B) {
	d := benchChurnDHT(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id := d.Join()
		b.StartTimer()
		if err := d.Leave(id); err != nil {
			b.Fatal(err)
		}
		fullRebuild(b, d)
	}
}

// BenchmarkDHTGet measures the end-to-end cost of a cached Get on the
// public facade (not a paper item; a library-level micro-benchmark).
func BenchmarkDHTGet(b *testing.B) {
	d := New(1024, Options{Seed: 99})
	d.Put(0, "bench", []byte("value"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := d.Get(i%d.N(), "bench"); !ok {
			b.Fatal("miss")
		}
	}
}

// storeAt returns the store of the server with handle h, which must exist.
func (d *DHT) storeAt(h ServerID) store.Store {
	s, _ := d.stores.get(h)
	return s
}
