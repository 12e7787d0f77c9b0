package p2p

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"condisc/internal/store"
	"condisc/internal/telemetry"
)

// The cluster both heap checks measure: the live_get benchmark's set-up.
const (
	heapNodes  = 32
	heapItems  = 20000
	heapValLen = 128
	// heapBudget bounds what the formed cluster may add to the live heap:
	// about 6 MB measured on 2 cores. Handed-off chunks left reachable from
	// the donor's chunk directory cost another 10 MB here, and counters 64
	// shards wide on any machine another 3.5 MB.
	heapBudget = 12 << 20
)

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// startHeapCluster pre-places every item in node 0's store and then forms
// the ring by real join handoffs, each node on its own store and telemetry
// registry as separate processes would be. It returns the cluster and the
// post-GC heap growth the whole set-up caused.
func startHeapCluster(tb testing.TB) (*Cluster, uint64) {
	tb.Helper()
	before := liveHeap()
	const seed = 77
	c := &Cluster{seed: seed, rng: rand.New(rand.NewPCG(seed, seed+1))}
	st := store.NewMem()
	first, err := NewNode("127.0.0.1:0", seed, WithStore(st), WithTelemetry(telemetry.NewRegistry()))
	if err != nil {
		tb.Fatal(err)
	}
	c.Nodes = append(c.Nodes, first)
	tb.Cleanup(c.Stop)
	hash := first.HashFunc()
	for i := 0; i < heapItems; i++ {
		key := fmt.Sprintf("item-%06d", i)
		if err := st.Put(hash(key), key, make([]byte, heapValLen)); err != nil {
			tb.Fatal(err)
		}
	}
	first.StartFirst(0)
	for i := 1; i < heapNodes; i++ {
		if _, err := c.JoinWith(WithTelemetry(telemetry.NewRegistry())); err != nil {
			tb.Fatalf("join %d: %v", i, err)
		}
	}
	if err := c.StabilizeAll(2); err != nil {
		tb.Fatal(err)
	}
	after := liveHeap()
	if after < before {
		return c, 0
	}
	return c, after - before
}

// TestClusterHeapFollowsOwnedItems is the end-to-end check that a node's
// memory follows the segment it owns: after 31 join handoffs split 20,000
// items across 32 nodes, no handed-off value may still be reachable from
// the store it left.
func TestClusterHeapFollowsOwnedItems(t *testing.T) {
	if testing.Short() {
		t.Skip("forms a 32-node cluster")
	}
	c, grew := startHeapCluster(t)
	total := 0
	for _, n := range c.Nodes {
		total += n.NumItems()
	}
	if total != heapItems {
		t.Fatalf("Σ NumItems = %d, want %d", total, heapItems)
	}
	t.Logf("heap growth %.1f MB for %d items x %d B on %d nodes", float64(grew)/(1<<20), heapItems, heapValLen, heapNodes)
	if grew > heapBudget {
		t.Fatalf("forming the cluster grew the live heap by %.1f MB, budget %.1f MB",
			float64(grew)/(1<<20), float64(heapBudget)/(1<<20))
	}
}

// BenchmarkClusterHeap reports the same set-up's live heap as custom
// metrics, so CI archives the footprint beside the churn-cost numbers.
func BenchmarkClusterHeap(b *testing.B) {
	var grew uint64
	for i := 0; i < b.N; i++ {
		var c *Cluster
		c, grew = startHeapCluster(b)
		c.Stop()
	}
	b.ReportMetric(float64(grew)/(1<<20), "heap-MB")
	b.ReportMetric(float64(grew)/heapItems, "heap-bytes/item")
}
