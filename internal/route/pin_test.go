package route

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"condisc/internal/interval"
)

// TestDHLookupPinned pins DHLookup, DHLookupTrace and DHLookupStoppable,
// which share one walk, to recorded digests. The digest covers every
// returned path, the full Trace, every (digits, depth, q) triple the stop
// callback is shown, the stop depth, and the next rng.Uint64() after each
// call — so a walk that visits a different server for one of the three,
// hands the callback a different digit string, or draws one digit more or
// fewer shifts it.
func TestDHLookupPinned(t *testing.T) {
	for _, tc := range []struct {
		delta uint64
		want  uint64
	}{
		{2, 0xd0f44f532cdad3d7},
		{4, 0xd2889c4d87471820},
	} {
		nw, rng := smoothNetwork(1024, tc.delta, 91)
		h := fnv.New64a()
		put := func(vs ...uint64) {
			var b [8]byte
			for _, v := range vs {
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
		}
		putPath := func(path []int) {
			put(uint64(len(path)))
			for _, v := range path {
				put(uint64(v))
			}
		}
		n := nw.G.N()
		for i := 0; i < 10000; i++ {
			putPath(nw.DHLookup(rng.IntN(n), interval.Point(rng.Uint64()), rng))
			put(rng.Uint64())

			path, tr := nw.DHLookupTrace(rng.IntN(n), interval.Point(rng.Uint64()), rng)
			putPath(path)
			put(uint64(len(tr.Digits)))
			put(tr.Digits...)
			put(uint64(tr.PhaseIEnd), uint64(len(tr.TargetWalk)))
			for _, q := range tr.TargetWalk {
				put(uint64(q))
			}
			put(rng.Uint64())

			// Every third call runs unintercepted (nil stop); the others stop
			// at a depth derived from the walk position, so truncation is
			// exercised at many depths.
			var stop func([]uint64, int, interval.Point) bool
			if i%3 != 0 {
				stop = func(digits []uint64, depth int, q interval.Point) bool {
					put(uint64(len(digits)))
					put(digits...)
					put(uint64(depth), uint64(q))
					return depth <= int(uint64(q)>>61)
				}
			}
			path, depth := nw.DHLookupStoppable(rng.IntN(n), interval.Point(rng.Uint64()), rng, stop)
			putPath(path)
			put(uint64(depth), rng.Uint64())
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("∆=%d: DH lookup digest %#x, want %#x", tc.delta, got, tc.want)
		}
	}
}

// TestFastLookupPinned pins Fast Lookup's paths (10⁴ lookups on a
// Multiple-Choice ring of 1024 servers) to digests recorded before the
// plan moved into FastPlan/FastAdvance: a different depth t, a skipped or
// extra hop, or a different final ring hop shifts them.
func TestFastLookupPinned(t *testing.T) {
	for _, tc := range []struct {
		delta uint64
		want  uint64
	}{
		{2, 0xa63d4bfeec2ac791},
		{4, 0x5225fd09331dc12a},
	} {
		nw, rng := smoothNetwork(1024, tc.delta, 93)
		h := fnv.New64a()
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		n := nw.G.N()
		for i := 0; i < 10000; i++ {
			path := nw.FastLookup(rng.IntN(n), interval.Point(rng.Uint64()))
			put(uint64(len(path)))
			for _, v := range path {
				put(uint64(v))
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("∆=%d: Fast Lookup digest %#x, want %#x", tc.delta, got, tc.want)
		}
	}
}

// lookupAllocCeiling is what DHLookup and FastLookup may allocate per
// call once the load meter has its pages: the returned path, nothing
// else. The walk, its phase-II stack, the neighbour test's images and the
// meter's increment all stay off the heap, and every simulator Get and
// Put pays for whatever does not — so a Trace, too, must stay opt-in.
const lookupAllocCeiling = 1

// warmNetwork returns a network of n servers whose meter has a counter
// for every server, so first-visit page growth is not counted.
func warmNetwork(n int) *Network {
	nw, _ := smoothNetwork(n, 2, 92)
	warm := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		nw.DHLookup(warm.IntN(n), interval.Point(warm.Uint64()), warm)
	}
	return nw
}

func TestDHLookupAllocsBelowTraceBuildingWalk(t *testing.T) {
	nw := warmNetwork(4096)
	rng := rand.New(rand.NewPCG(3, 4))
	got := testing.AllocsPerRun(2000, func() {
		nw.DHLookup(rng.IntN(4096), interval.Point(rng.Uint64()), rng)
	})
	if got > lookupAllocCeiling {
		t.Errorf("DHLookup allocates %.2f/op at n=4096, want <= %d", got, lookupAllocCeiling)
	}
}

func TestFastLookupAllocs(t *testing.T) {
	nw := warmNetwork(4096)
	rng := rand.New(rand.NewPCG(5, 6))
	got := testing.AllocsPerRun(2000, func() {
		nw.FastLookup(rng.IntN(4096), interval.Point(rng.Uint64()))
	})
	if got > lookupAllocCeiling {
		t.Errorf("FastLookup allocates %.2f/op at n=4096, want <= %d", got, lookupAllocCeiling)
	}
	if maxWalkSteps(2)+1 != walkPoints {
		t.Errorf("walkPoints = %d, want maxWalkSteps(2)+1 = %d", walkPoints, maxWalkSteps(2)+1)
	}
}
