package route

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"condisc/internal/dhgraph"
	"condisc/internal/interval"
	"condisc/internal/partition"
)

// TestLoadMeterUnderChurn: four goroutines run DH lookups while joins and
// leaves through the incremental graph issue handles two pages past the
// meter's first, so pages are added while lookups count into them. Every
// visit is counted exactly once, Forget and ResetLoad zero in place, and a
// handle never issued reads 0 without allocating. Run with -race.
func TestLoadMeterUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewPCG(81, 82))
	ring := partition.Grow(partition.New(), 256, partition.MultipleChooser(2), rng)
	nw := NewNetwork(dhgraph.Build(ring, 2))

	// Each worker looks up while the churn runs, then 500 times more so the
	// newest servers, too, are visited.
	const workers, after = 4, 500
	var (
		wg    sync.WaitGroup
		done  atomic.Bool
		elems atomic.Int64 // Σ path lengths
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(83, uint64(w)))
			for i := 0; i < after; {
				// Any index is a valid origin: the lookup clamps it into
				// the snapshot it resolves against.
				path := nw.DHLookup(r.IntN(256), interval.Point(r.Uint64()), r)
				elems.Add(int64(len(path)))
				if done.Load() {
					i++
				}
			}
		}(w)
	}

	// Churn on this goroutine, three joins per leave. Departed handles are
	// forgotten only after the lookups stop, so every counted visit is
	// still in the meter when the totals are compared.
	var gone []partition.Handle
	last := ring.HandleAt(0)
	for op := 0; last <= 2<<loadPageBits; op++ {
		if op%4 == 3 {
			victim := rng.IntN(ring.N())
			gone = append(gone, ring.HandleAt(victim))
			nw.G.Remove(victim)
			continue
		}
		if idx, ok := nw.G.Insert(partition.MultipleChoice(ring, rng, 2)); ok {
			last = ring.HandleAt(idx)
		}
	}
	done.Store(true)
	wg.Wait()

	sum := func() (tot int64) {
		for _, l := range nw.LoadMap() {
			tot += l
		}
		return tot
	}
	if got, want := sum(), elems.Load(); got != want {
		t.Fatalf("metered load %d != Σ path lengths %d", got, want)
	}
	if pages := len(nw.load.dir()); pages < 3 {
		t.Fatalf("meter has %d pages after handle %d was issued, want >= 3", pages, last)
	}

	counted := 0
	for _, h := range gone {
		if nw.LoadOf(h) > 0 {
			counted++
		}
		nw.Forget(h)
		if l := nw.LoadOf(h); l != 0 {
			t.Fatalf("LoadOf(%d) = %d after Forget", h, l)
		}
		if _, ok := nw.LoadMap()[h]; ok {
			t.Fatalf("forgotten handle %d is still in LoadMap", h)
		}
	}
	if counted == 0 {
		t.Fatalf("none of the %d departed servers had handled a message", len(gone))
	}

	const never = partition.Handle(1 << 40)
	if l := nw.LoadOf(never); l != 0 {
		t.Fatalf("LoadOf(1<<40) = %d", l)
	}
	if a := testing.AllocsPerRun(100, func() { nw.LoadOf(never) }); a != 0 {
		t.Fatalf("LoadOf(1<<40) allocates %.0f", a)
	}

	nw.ResetLoad()
	if m, s := nw.MaxLoad(), sum(); m != 0 || s != 0 {
		t.Fatalf("after ResetLoad: MaxLoad %d, Σ LoadMap %d", m, s)
	}
	for h := partition.Handle(1); h <= last; h++ {
		if l := nw.LoadOf(h); l != 0 {
			t.Fatalf("after ResetLoad: LoadOf(%d) = %d", h, l)
		}
	}
}
