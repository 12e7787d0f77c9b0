package experiments

import (
	"fmt"
	"math"

	"condisc/internal/cache"
	"condisc/internal/hashing"
	"condisc/internal/metrics"
	"condisc/internal/workload"
)

// Lemma33ActiveTree reproduces Observation 3.1 and Lemma 3.3: the active
// tree holds at most 4q/c nodes and its depth tracks log(q/c)+O(1); after
// demand stops, epochs collapse it back to the root.
func Lemma33ActiveTree(cfg Config) Result {
	n := cfg.size(4096)
	c := int(math.Log2(float64(n)))
	rng := cfg.rng(20)
	sys := cache.NewSystem(smoothNet(n, 2, rng), hashing.NewKWise(16, rng), c)

	t := metrics.NewTable("q", "active nodes", "4q/c", "depth", "log(q/c)+4")
	for _, q := range []int{n / 8, n / 2, n, 2 * n} {
		item := fmt.Sprintf("i%d", q)
		for k := 0; k < q; k++ {
			sys.Request(rng.IntN(n), item, rng)
		}
		t.AddRow(q, sys.ActiveNodes(item), 4*q/c, sys.MaxDepth(item),
			math.Log2(float64(q)/float64(c))+4)
	}
	// Collapse: cold epochs shrink the largest tree back to its root.
	before := sys.ActiveNodes("i8192")
	for e := 0; e < 64; e++ {
		sys.EndEpoch()
	}
	after := sys.ActiveNodes(fmt.Sprintf("i%d", 2*n))
	return Result{Table: t,
		Notes: []string{fmt.Sprintf("after 64 cold epochs the hottest tree shrank %d -> %d (root only)", before, after)}}
}

// Thm36SingleHotspot reproduces Theorem 3.6: under a single hot item
// requested by every server, each server supplies O(log² n) requests and
// routes O(log² n) messages — versus the no-caching baseline in which the
// item's home server handles all n requests.
func Thm36SingleHotspot(cfg Config) Result {
	n := cfg.size(4096)
	c := int(math.Log2(float64(n)))
	logN := math.Log2(float64(n))

	run := func(threshold int, salt uint64) (maxSup, homeSup, maxLoad int64) {
		rng := cfg.rng(salt)
		sys := cache.NewSystem(smoothNet(n, 2, rng), hashing.NewKWise(16, rng), threshold)
		sys.ResetLoadStats()
		for _, r := range workload.SingleHotBatch(n, n, "hot", rng) {
			sys.Request(r.Src, r.Item, rng)
		}
		for _, s := range sys.Supplied {
			if s > maxSup {
				maxSup = s
			}
		}
		home := sys.Net.G.Ring.CoverHandle(sys.H.Point("hot"))
		return maxSup, sys.Supplied[home], sys.Net.MaxLoad()
	}
	onSup, onHome, onLoad := run(c, 21)
	offSup, offHome, offLoad := run(0, 21)

	t := metrics.NewTable("variant", "max supplies", "home supplies", "max messages", "log² n")
	t.AddRow("caching ON (c=log n)", onSup, onHome, onLoad, logN*logN)
	t.AddRow("caching OFF (baseline)", offSup, offHome, offLoad, "—")
	return Result{Table: t,
		Notes: []string{"the baseline home server absorbs every request; caching caps it at O(log² n)."}}
}

// Thm38MultiHotspot reproduces Theorem 3.8: an arbitrary batch of n
// requests (Zipf-skewed over many items) leaves every cache at O(log n)
// items and every server supplying O(log² n) requests.
func Thm38MultiHotspot(cfg Config) Result {
	n := cfg.size(4096)
	c := int(math.Log2(float64(n)))
	logN := math.Log2(float64(n))
	rng := cfg.rng(22)
	sys := cache.NewSystem(smoothNet(n, 2, rng), hashing.NewKWise(int(logN), rng), c)
	sys.ResetLoadStats()

	for _, r := range workload.Batch(n, n, n/4, 1.1, rng) {
		sys.Request(r.Src, r.Item, rng)
	}
	maxCache := 0
	for _, s := range sys.ServerCacheSizes() {
		if s > maxCache {
			maxCache = s
		}
	}
	var maxSup int64
	for _, s := range sys.Supplied {
		if s > maxSup {
			maxSup = s
		}
	}
	t := metrics.NewTable("metric", "measured", "paper bound")
	t.AddRow("max cache size", maxCache, "O(log n) = "+fmtF(logN))
	t.AddRow("total new copies", sys.TotalCopies(), "O(n/log n) = "+fmtF(float64(n)/logN))
	t.AddRow("max supplies per server", maxSup, "O(log² n) = "+fmtF(logN*logN))
	t.AddRow("max messages per server", sys.Net.MaxLoad(), "O(log² n)")
	return Result{Table: t}
}

// ContentUpdate reproduces §3.4: propagating an update along the active
// tree takes O(log(q/c)) parallel time with one message per cached copy.
func ContentUpdate(cfg Config) Result {
	n := cfg.size(4096)
	c := int(math.Log2(float64(n)))
	rng := cfg.rng(23)
	sys := cache.NewSystem(smoothNet(n, 2, rng), hashing.NewKWise(16, rng), c)

	t := metrics.NewTable("q", "copies", "update messages", "parallel time", "log(q/c)+4")
	for _, q := range []int{n / 4, n, 4 * n} {
		item := fmt.Sprintf("u%d", q)
		for k := 0; k < q; k++ {
			sys.Request(rng.IntN(n), item, rng)
		}
		msgs, time := sys.UpdateItem(item)
		t.AddRow(q, sys.ActiveNodes(item)-1, msgs, time, math.Log2(float64(q)/float64(c))+4)
	}
	return Result{Table: t}
}
