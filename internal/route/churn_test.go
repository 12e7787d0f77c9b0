package route

import (
	"math/rand/v2"
	"testing"

	"condisc/internal/dhgraph"
	"condisc/internal/interval"
	"condisc/internal/partition"
)

// TestChurnPreservesLoadAndRouting: joins and leaves applied through the
// incremental graph leave the handle-keyed congestion counters untouched
// (no entry moves, appears, or changes) and the network immediately
// routable.
func TestChurnPreservesLoadAndRouting(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	ring := partition.Grow(partition.New(), 256, partition.MultipleChooser(2), rng)
	nw := NewNetwork(dhgraph.Build(ring, 2))
	nw.RandomLookups(512, false, rng)
	sum := func() (tot int64) {
		for _, l := range nw.LoadMap() {
			tot += l
		}
		return
	}
	before := sum()
	if before == 0 {
		t.Fatal("no load recorded")
	}

	idx, ok := nw.G.Insert(partition.MultipleChoice(ring, rng, 2))
	if !ok {
		t.Fatal("insert failed")
	}
	if nw.LoadOf(ring.HandleAt(idx)) != 0 || sum() != before {
		t.Fatalf("join corrupted load accounting (sum %d -> %d)", before, sum())
	}

	victim := rng.IntN(ring.N())
	h := ring.HandleAt(victim)
	dropped := nw.LoadOf(h)
	nw.G.Remove(victim)
	nw.Forget(h)
	if sum() != before-dropped {
		t.Fatalf("leave corrupted load accounting")
	}
	if _, ok := nw.LoadMap()[h]; ok {
		t.Fatal("departed server's counter survived Forget")
	}

	// The patched network routes correctly right away.
	for i := 0; i < 256; i++ {
		y := interval.Point(rng.Uint64())
		path := nw.DHLookup(rng.IntN(ring.N()), y, rng)
		if path[len(path)-1] != ring.Cover(y) {
			t.Fatalf("lookup for %v ended at %d, owner %d", y, path[len(path)-1], ring.Cover(y))
		}
	}
}

// TestLoadPreservedAcross1kChurnEvents is the counter-preservation
// property test: across 1000 random joins and leaves, every surviving
// server's congestion counter is bit-for-bit identical to its value when
// the metering stopped — not merely the same in aggregate.
func TestLoadPreservedAcross1kChurnEvents(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 80))
	ring := partition.Grow(partition.New(), 512, partition.MultipleChooser(2), rng)
	nw := NewNetwork(dhgraph.Build(ring, 2))
	nw.RandomLookups(2048, false, rng)

	want := nw.LoadMap()

	for op := 0; op < 1000; op++ {
		join := rng.IntN(2) == 0
		if ring.N() <= 64 {
			join = true
		} else if ring.N() >= 2048 {
			join = false
		}
		if join {
			nw.G.Insert(partition.MultipleChoice(ring, rng, 2))
		} else {
			victim := rng.IntN(ring.N())
			h := ring.HandleAt(victim)
			nw.G.Remove(victim)
			nw.Forget(h)
			delete(want, h)
		}
		got := nw.LoadMap()
		if len(got) != len(want) {
			t.Fatalf("op %d: %d load entries, want %d", op, len(got), len(want))
		}
		for h, l := range want {
			if got[h] != l {
				t.Fatalf("op %d: survivor %d's load changed: %d != %d", op, h, got[h], l)
			}
		}
	}
}
