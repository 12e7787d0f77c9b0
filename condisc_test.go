package condisc

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"condisc/internal/interval"
	"condisc/internal/store"
)

func TestPutGetRoundTrip(t *testing.T) {
	d := New(256, Options{Seed: 1})
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		d.Put(i%d.N(), key, []byte{byte(i)})
	}
	for i := 0; i < 100; i++ {
		v, hops, ok := d.Get((i+7)%d.N(), fmt.Sprintf("k%d", i))
		if !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("get k%d = %v ok=%v", i, v, ok)
		}
		bound := 2*math.Log2(float64(d.N())) + 2*math.Log2(d.Smoothness()) + 3
		if float64(hops) > bound {
			t.Fatalf("get k%d took %d hops > %v", i, hops, bound)
		}
	}
}

func TestGetMissing(t *testing.T) {
	d := New(64, Options{Seed: 2})
	if _, _, ok := d.Get(0, "missing"); ok {
		t.Fatal("expected miss")
	}
}

func TestJoinLeaveMigratesItems(t *testing.T) {
	d := New(32, Options{Seed: 3})
	for i := 0; i < 200; i++ {
		d.Put(0, fmt.Sprintf("key%d", i), []byte("v"))
	}
	ids := make([]ServerID, 0, 10)
	for j := 0; j < 10; j++ {
		ids = append(ids, d.Join())
	}
	for _, id := range ids {
		if err := d.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	if d.N() != 32 {
		t.Fatalf("N = %d", d.N())
	}
	for i := 0; i < 200; i++ {
		if _, _, ok := d.Get(1, fmt.Sprintf("key%d", i)); !ok {
			t.Fatalf("key%d lost after churn", i)
		}
	}
}

func TestLeaveErrors(t *testing.T) {
	d := New(2, Options{Seed: 4})
	if err := d.Leave(d.IDAt(0)); err == nil {
		t.Error("expected error shrinking below 2")
	}
	d2 := New(4, Options{Seed: 5})
	if err := d2.Leave(ServerID(1 << 60)); err == nil {
		t.Error("expected error for unknown server id")
	}
	id := d2.IDAt(1)
	if err := d2.Leave(id); err != nil {
		t.Fatal(err)
	}
	if err := d2.Leave(id); err == nil {
		t.Error("expected error leaving twice with the same id")
	}
}

// TestStableServerIDs: a ServerID keeps naming the same server across
// unrelated churn, unlike a positional index.
func TestStableServerIDs(t *testing.T) {
	d := New(16, Options{Seed: 11})
	id := d.Join()
	idx, ok := d.IndexOf(id)
	if !ok {
		t.Fatal("fresh id unknown")
	}
	pt := d.ring.Point(idx)
	for i := 0; i < 25; i++ {
		other := d.Join()
		if i%2 == 0 {
			if err := d.Leave(other); err != nil {
				t.Fatal(err)
			}
		}
	}
	idx2, ok := d.IndexOf(id)
	if !ok {
		t.Fatal("id lost after unrelated churn")
	}
	if d.ring.Point(idx2) != pt {
		t.Fatalf("id now names a different server point")
	}
	if err := d.Leave(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.IndexOf(id); ok {
		t.Fatal("id survived its own leave")
	}
}

// eachItem calls fn for every item of s, in (point, key) order, through
// store.Scan.
func eachItem(t testing.TB, s store.Store, fn func(store.Item)) {
	t.Helper()
	if err := store.Scan(s, interval.FullCircle, func(items []store.Item) error {
		for _, it := range items {
			fn(it)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestChurnItemConservation: across a long random churn trace every stored
// item stays stored exactly once, at the server covering its hash point.
func TestChurnItemConservation(t *testing.T) {
	d := New(64, Options{Seed: 12})
	const items = 500
	for i := 0; i < items; i++ {
		d.Put(i%d.N(), fmt.Sprintf("key%d", i), []byte{byte(i)})
	}
	check := func(op int) {
		total := 0
		d.stores.each(func(id ServerID, s store.Store) {
			total += s.Len()
			eachItem(t, s, func(it store.Item) {
				if own := d.IDAt(d.Owner(it.Key)); own != id {
					t.Fatalf("op %d: %q stored at %d, owned by %d", op, it.Key, id, own)
				}
				if d.hash.Point(it.Key) != it.Point {
					t.Fatalf("op %d: %q stored under point %v, hashes to %v", op, it.Key, it.Point, d.hash.Point(it.Key))
				}
			})
		})
		if total != items {
			t.Fatalf("op %d: %d items stored, want %d", op, total, items)
		}
	}
	check(-1)
	for op := 0; op < 300; op++ {
		if d.N() <= 8 || (d.N() < 128 && op%2 == 0) {
			d.Join()
		} else {
			victims := d.Servers()
			if err := d.Leave(victims[op%len(victims)]); err != nil {
				t.Fatal(err)
			}
		}
		check(op)
	}
	for i := 0; i < items; i++ {
		v, _, ok := d.Get(i%d.N(), fmt.Sprintf("key%d", i))
		if !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("key%d lost or corrupted after churn", i)
		}
	}
}

// TestCacheSurvivesChurn: a hot item's cached copies outside the changed
// region keep serving across a join — churn no longer wipes the §3 state.
func TestCacheSurvivesChurn(t *testing.T) {
	d := New(512, Options{Seed: 13})
	d.Put(0, "hot", []byte("x"))
	for i := 0; i < 4096; i++ {
		if _, _, ok := d.Get(i%d.N(), "hot"); !ok {
			t.Fatal("hot key lost")
		}
	}
	before := d.cache.ActiveNodes("hot")
	if before < 3 {
		t.Fatalf("tree did not grow: %d nodes", before)
	}
	d.Join()
	after := d.cache.ActiveNodes("hot")
	if after < 2 {
		t.Fatalf("join wiped the cache state: %d -> %d active nodes", before, after)
	}
	if _, _, ok := d.Get(3, "hot"); !ok {
		t.Fatal("hot key unreachable after join")
	}
}

func TestConstantDegree(t *testing.T) {
	d := New(2048, Options{Seed: 6})
	if deg := d.MaxDegree(); deg > 24 {
		t.Errorf("max degree %d not constant-like (ρ=%.1f)", deg, d.Smoothness())
	}
	if rho := d.Smoothness(); rho > 16 {
		t.Errorf("smoothness %v too large", rho)
	}
}

// TestHotKeyCaching: repeated gets of one key are spread by the caching
// protocol — the owner's supply count stays sublinear.
func TestHotKeyCaching(t *testing.T) {
	d := New(1024, Options{Seed: 7})
	d.Put(0, "hot", []byte("x"))
	d.ResetLoad()
	for i := 0; i < 2048; i++ {
		if _, _, ok := d.Get(i%d.N(), "hot"); !ok {
			t.Fatal("hot key lost")
		}
	}
	logN := math.Log2(float64(d.N()))
	if max := d.MaxLoad(); float64(max) > 8*logN*logN {
		t.Errorf("hot-key max load %d > O(log² n)", max)
	}
}

func TestDeltaOption(t *testing.T) {
	d := New(1024, Options{Seed: 8, Delta: 16, CacheThreshold: -1})
	d.Put(0, "a", []byte("b"))
	_, hops, ok := d.Get(5, "a")
	if !ok {
		t.Fatal("miss")
	}
	// log_16(1024) = 2.5; generous slack for smoothness.
	if hops > 12 {
		t.Errorf("∆=16 get took %d hops", hops)
	}
}

// TestGetAllocs pins what a simulator read allocates once the load meter
// has a counter for every server: the lookup's private digit stream and
// the returned path.
func TestGetAllocs(t *testing.T) {
	const n = 4096
	d := New(n, Options{Seed: 10, CacheThreshold: -1})
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		d.Put(i, keys[i], []byte{byte(i)})
	}
	for i := 0; i < 20000; i++ {
		d.Get(i%n, keys[i%len(keys)])
	}
	i := 0
	got := testing.AllocsPerRun(2000, func() {
		i++
		if _, _, ok := d.Get(i*7%n, keys[i%len(keys)]); !ok {
			t.Fatal("miss")
		}
	})
	if got > 2 {
		t.Errorf("Get allocates %.2f/op at n=%d, want <= 2", got, n)
	}
}

// TestSimulatorHeapPerServer holds the simulator's footprint per server:
// a 20,000-server DHT holding 4,000 items of 128 B, the same items per
// server as README's 100k-server table. The graph keeps each server's out-
// and in-lists and derives the adjacency on demand; the ring and the graph
// find a server's state by indexing a slice with its handle. A stored
// adjacency list or a handle map per server breaks the budget.
func TestSimulatorHeapPerServer(t *testing.T) {
	// budget: 288 B per server measured (go1.24 linux/amd64), plus 10 %.
	const n, items, budget = 20_000, 4_000, 317
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := New(n, Options{Seed: 12, CacheThreshold: -1})
	val := make([]byte, 128)
	for i := 0; i < items; i++ {
		d.Put(i%n, fmt.Sprintf("heap-%d", i), val)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	perServer := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("live heap %.0f B per server", perServer)
	if perServer > budget {
		t.Errorf("live heap %.0f B per server, budget %d", perServer, budget)
	}
}

func TestDeterministicSeed(t *testing.T) {
	a, b := New(64, Options{Seed: 9}), New(64, Options{Seed: 9})
	if a.Owner("x") != b.Owner("x") || a.Smoothness() != b.Smoothness() {
		t.Error("same seed must give identical networks")
	}
}

// TestLogBackedDHT: the simulated DHT runs end to end on the disk-backed
// WAL engine — puts, gets, and churn-driven range migration all flow
// through internal/store, and Leave reclaims the departed server's files.
func TestLogBackedDHT(t *testing.T) {
	d := New(16, Options{Seed: 21, Storage: StorageLog, DataDir: t.TempDir()})
	defer d.Close()
	const items = 120
	for i := 0; i < items; i++ {
		d.Put(i%d.N(), fmt.Sprintf("key%d", i), []byte{byte(i)})
	}
	var ids []ServerID
	for j := 0; j < 6; j++ {
		ids = append(ids, d.Join())
	}
	for _, id := range ids {
		if err := d.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for i := 0; i < d.N(); i++ {
		total += d.Items(i)
	}
	if total != items {
		t.Fatalf("%d items on disk after churn, want %d", total, items)
	}
	for i := 0; i < items; i++ {
		v, _, ok := d.Get(i%d.N(), fmt.Sprintf("key%d", i))
		if !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("key%d lost or corrupted on the log engine: %q %v", i, v, ok)
		}
	}
}

func TestPanicsOnTinyN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1, Options{})
}
