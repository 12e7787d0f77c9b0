package condisc

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"

	"condisc/internal/store"
)

// TestJoinBatchLeaveBatchRoundTrip: the batch forms grow and shrink the
// network, ids are distinct and stable, and the per-server invariants
// (every key still owned, counters for newcomers zero) hold.
func TestJoinBatchLeaveBatchRoundTrip(t *testing.T) {
	d := New(64, Options{Seed: 11})
	defer d.Close()
	for i := 0; i < 32; i++ {
		d.Put(i%d.N(), string(rune('a'+i)), []byte{byte(i)})
	}
	before := d.N()
	ids := d.JoinBatch(16)
	if len(ids) != 16 {
		t.Fatalf("JoinBatch returned %d ids", len(ids))
	}
	seen := map[ServerID]bool{}
	for _, id := range ids {
		if id == 0 || seen[id] {
			t.Fatalf("bad or duplicate id %d in %v", id, ids)
		}
		seen[id] = true
		if _, ok := d.IndexOf(id); !ok {
			t.Fatalf("joined server %d not in ring", id)
		}
	}
	if d.N() != before+16 {
		t.Fatalf("N = %d after JoinBatch(16), want %d", d.N(), before+16)
	}
	for i := 0; i < 32; i++ {
		if _, _, ok := d.Get(i%d.N(), string(rune('a'+i))); !ok {
			t.Fatalf("key %q lost across JoinBatch", string(rune('a'+i)))
		}
	}
	if err := d.LeaveBatch(ids); err != nil {
		t.Fatal(err)
	}
	if d.N() != before {
		t.Fatalf("N = %d after LeaveBatch, want %d", d.N(), before)
	}
	for i := 0; i < 32; i++ {
		if _, _, ok := d.Get(i%d.N(), string(rune('a'+i))); !ok {
			t.Fatalf("key %q lost across LeaveBatch", string(rune('a'+i)))
		}
	}
}

// TestLeaveBatchValidation: duplicate ids, unknown ids, and below-floor
// shrinks fail atomically — no partial application.
func TestLeaveBatchValidation(t *testing.T) {
	d := New(8, Options{Seed: 3})
	defer d.Close()
	ids := d.Servers()
	if err := d.LeaveBatch([]ServerID{ids[0], ids[0]}); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	if err := d.LeaveBatch([]ServerID{99999}); err == nil {
		t.Fatal("unknown id accepted")
	}
	if err := d.LeaveBatch(ids[:7]); err == nil {
		t.Fatal("shrink below 2 servers accepted")
	}
	if d.N() != 8 {
		t.Fatalf("failed batches mutated the network: N = %d", d.N())
	}
	if err := d.LeaveBatch(ids[:6]); err != nil {
		t.Fatal(err)
	}
	if d.N() != 2 {
		t.Fatalf("N = %d, want 2", d.N())
	}
}

// TestJoinAtExplicitPoint: JoinAt admits an explicit point once and
// refuses the duplicate without burning a handle.
func TestJoinAtExplicitPoint(t *testing.T) {
	d := New(4, Options{Seed: 5})
	defer d.Close()
	p := Point(0x4242424242424242)
	id, ok := d.JoinAt(p)
	if !ok || id == 0 {
		t.Fatalf("JoinAt(%d) = %d, %v", uint64(p), id, ok)
	}
	if id2, ok2 := d.JoinAt(p); ok2 || id2 != 0 {
		t.Fatalf("duplicate JoinAt admitted: %d, %v", id2, ok2)
	}
	if d.N() != 5 {
		t.Fatalf("N = %d, want 5", d.N())
	}
}

// TestLazyStoreRace: Puts race for a server's first item while that server
// leaves and a neighbour joins into its old segment. Afterwards no
// departed server has a store (its slot keeps the tombstone), every
// acknowledged Put reads back, each item is stored once, and WriteState's
// check — every installed store belongs to a live server — holds.
func TestLazyStoreRace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   Options
		rounds int
	}{
		{"mem", Options{Seed: 31, CacheThreshold: -1}, 60},
		{"log", Options{Seed: 32, CacheThreshold: -1, Storage: StorageLog}, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.opts.Storage == StorageLog {
				tc.opts.DataDir = t.TempDir()
			}
			d := New(16, tc.opts)
			defer d.Close()
			acked := map[string]bool{}
			var gone []ServerID
			for round := 0; round < tc.rounds; round++ {
				v := d.Join()
				idx, _ := d.IndexOf(v)
				seg := d.ring.Segment(idx)
				var keys []string
				for j := 0; len(keys) < 8; j++ {
					if k := fmt.Sprintf("r%d-%d", round, j); seg.Contains(d.KeyPoint(k)) {
						keys = append(keys, k)
					}
				}
				var wg sync.WaitGroup
				start := make(chan struct{})
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for i := g; i < len(keys); i += 4 {
							d.Put(i, keys[i], []byte(keys[i]))
						}
					}()
				}
				close(start)
				if err := d.Leave(v); err != nil {
					t.Fatal(err)
				}
				if _, ok := d.JoinAt(seg.Mid()); !ok {
					t.Fatalf("round %d: JoinAt the departed segment's midpoint refused", round)
				}
				wg.Wait()
				for _, k := range keys {
					acked[k] = true
				}
				gone = append(gone, v)

				for _, id := range gone {
					if r := d.stores.slot(id).Load(); r != departed {
						t.Fatalf("round %d: departed server %d holds %v, not the tombstone", round, id, r)
					}
				}
				for k := range acked {
					if got, _, ok := d.Get(0, k); !ok || !bytes.Equal(got, []byte(k)) {
						t.Fatalf("round %d: acknowledged %q reads %q, %v", round, k, got, ok)
					}
				}
				stored := 0
				d.stores.each(func(_ ServerID, s store.Store) { stored += s.Len() })
				if stored != len(acked) {
					t.Fatalf("round %d: %d items stored, %d acknowledged", round, stored, len(acked))
				}
				if err := d.WriteState(io.Discard); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
		})
	}
}

// TestStoresOpenOnFirstItem: New and a join that moves no item create no
// item store — on the log engine, no directory — until a server's first
// item arrives.
func TestStoresOpenOnFirstItem(t *testing.T) {
	dir := t.TempDir()
	d := New(8, Options{Seed: 33, Storage: StorageLog, DataDir: dir})
	defer d.Close()
	d.Join()
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("before the first Put: %d store directories (err %v), want 0", len(ents), err)
	}
	d.Put(0, "first", []byte("v"))
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("after the first Put: %d store directories (err %v), want 1", len(ents), err)
	}
}

// TestChurnAllocsFlatInN: a Join+Leave pair costs the same allocations,
// in count and nearly in bytes, at n = 32k as at n = 1k. The churn path
// touches the O(ρ·∆) servers around the changed segment (Theorem 2.2).
// The renumber bug — state keyed by ring position, rebuilt on every
// event — allocates in proportion to n: as a map it grows the count, as a
// slice the bytes. (Work that grows with n without allocating, such as an
// in-place shift, is TestGateChurnCostFlatInN's.)
func TestChurnAllocsFlatInN(t *testing.T) {
	const pairs = 200
	perPair := func(n int) (allocs, bytes float64) {
		d := New(n, Options{Seed: 4242})
		defer d.Close()
		for i := 0; i < 2*n; i++ {
			d.Put(i%n, fmt.Sprintf("item-%d", i), []byte("v"))
		}
		churn := func() {
			if err := d.Leave(d.Join()); err != nil {
				t.Fatal(err)
			}
		}
		churn() // warm up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			churn()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / pairs, float64(after.TotalAlloc-before.TotalAlloc) / pairs
	}
	smallN, smallB := perPair(1_000)
	bigN, bigB := perPair(32_000)
	t.Logf("per Join+Leave: n=1k %.1f allocations, %.0f B; n=32k %.1f allocations, %.0f B", smallN, smallB, bigN, bigB)
	if bigN > 1.25*smallN {
		t.Errorf("a Join+Leave pair allocates %.1f times at n=32k against %.1f at n=1k (bar 1.25x)", bigN, smallN)
	}
	if bigB > 2*smallB {
		t.Errorf("a Join+Leave pair allocates %.0f B at n=32k against %.0f B at n=1k (bar 2x)", bigB, smallB)
	}
}
