package partition

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"condisc/internal/interval"
)

// refList is the trivially correct flat-slice reference the chunked list is
// differentially tested against.
type refList struct {
	pts []interval.Point
	hs  []Handle
}

func (r *refList) searchGT(p interval.Point) int {
	return sort.Search(len(r.pts), func(i int) bool { return r.pts[i] > p })
}

func (r *refList) insert(p interval.Point, h Handle) (int, bool) {
	i := r.searchGT(p)
	if i > 0 && r.pts[i-1] == p {
		return i - 1, false
	}
	r.pts = slices.Insert(r.pts, i, p)
	r.hs = slices.Insert(r.hs, i, h)
	return i, true
}

func (r *refList) removeAt(i int) {
	r.pts = slices.Delete(r.pts, i, i+1)
	r.hs = slices.Delete(r.hs, i, i+1)
}

func checkAgainstRef(t *testing.T, op int, l *olist, ref *refList) {
	t.Helper()
	if l.size() != len(ref.pts) {
		t.Fatalf("op %d: size %d != %d", op, l.size(), len(ref.pts))
	}
	seen := 0
	l.scan(func(i int, p interval.Point, h Handle) {
		if p != ref.pts[i] || h != ref.hs[i] {
			t.Fatalf("op %d: scan[%d] = (%v,%d), want (%v,%d)", op, i, p, h, ref.pts[i], ref.hs[i])
		}
		seen++
	})
	if seen != len(ref.pts) {
		t.Fatalf("op %d: scan visited %d of %d", op, seen, len(ref.pts))
	}
	// Directory invariants: non-empty chunks, sizes within bounds, maxs
	// match, Fenwick consistent.
	total := 0
	for c, ck := range l.chunks {
		if len(ck.pts) == 0 {
			t.Fatalf("op %d: empty chunk %d", op, c)
		}
		if len(ck.pts) >= chunkMax {
			t.Fatalf("op %d: chunk %d oversized (%d)", op, c, len(ck.pts))
		}
		if l.maxs[c] != ck.pts[len(ck.pts)-1] {
			t.Fatalf("op %d: maxs[%d] = %v, want %v", op, c, l.maxs[c], ck.pts[len(ck.pts)-1])
		}
		if l.fenPrefix(c) != total {
			t.Fatalf("op %d: fenPrefix(%d) = %d, want %d", op, c, l.fenPrefix(c), total)
		}
		total += len(ck.pts)
	}
}

// TestOlistDifferential drives random interleavings of insert/remove/query
// against the flat-slice reference.
func TestOlistDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 202))
	var l olist
	var ref refList
	for op := 0; op < 30_000; op++ {
		switch {
		case ref.pts == nil || rng.IntN(3) > 0 && len(ref.pts) < 2500 || len(ref.pts) < 10:
			p := interval.Point(rng.Uint64() >> 44) // narrow range forces duplicates
			h := Handle(op + 1)
			gi, gok := l.insert(p, h)
			wi, wok := ref.insert(p, h)
			if gi != wi || gok != wok {
				t.Fatalf("op %d: insert(%v) = (%d,%v), want (%d,%v)", op, p, gi, gok, wi, wok)
			}
		default:
			i := rng.IntN(len(ref.pts))
			l.removeAt(i)
			ref.removeAt(i)
		}
		if op%37 == 0 || op < 100 {
			checkAgainstRef(t, op, &l, &ref)
		}
		// Random point queries.
		p := interval.Point(rng.Uint64() >> 44)
		if g, w := l.searchGT(p), ref.searchGT(p); g != w {
			t.Fatalf("op %d: searchGT(%v) = %d, want %d", op, p, g, w)
		}
		if len(ref.pts) > 0 {
			i := rng.IntN(len(ref.pts))
			gp, gh := l.at(i)
			if gp != ref.pts[i] || gh != ref.hs[i] {
				t.Fatalf("op %d: at(%d) = (%v,%d), want (%v,%d)", op, i, gp, gh, ref.pts[i], ref.hs[i])
			}
			gc, gs := l.coverSegOnly(p)
			wi := ref.searchGT(p) - 1
			if wi < 0 {
				wi = len(ref.pts) - 1
			}
			ws := ref.pts[(wi+1)%len(ref.pts)]
			if gc != ref.pts[wi] || gs != ws {
				t.Fatalf("op %d: coverSegOnly(%v) = (%v,%v), want (%v,%v)",
					op, p, gc, gs, ref.pts[wi], ws)
			}
		}
	}
	checkAgainstRef(t, -1, &l, &ref)
}

// TestCoverHandlesOfArc: the chunk-walking handle enumeration lists, in
// ring order from the cover of arc.Start, exactly the run of servers whose
// segments overlap the arc — checked against a rank-by-rank walk on random
// rings and arcs, including wrap-around and full-circle arcs.
func TestCoverHandlesOfArc(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	r := New()
	for i := 0; i < 700; i++ {
		r.Insert(interval.Point(rng.Uint64()))
	}
	check := func(arc interval.Segment) {
		t.Helper()
		want := make([]Handle, 0, 8)
		i := r.Cover(arc.Start)
		if arc.Len == 0 {
			i = 0 // the full circle is listed in index order
		}
		for k := 0; k < r.N() && r.Segment(i).Overlaps(arc); k, i = k+1, r.Successor(i) {
			want = append(want, r.HandleAt(i))
		}
		got := r.CoverHandlesOfArc(arc)
		if len(got) != len(want) {
			t.Fatalf("arc %v: %d handles, want %d", arc, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("arc %v: handle[%d] = %d, want %d", arc, i, got[i], want[i])
			}
		}
		// SegmentOf must agree with the index path too.
		if s, w := r.SegmentOf(arc.Start), r.Segment(r.Cover(arc.Start)); s != w {
			t.Fatalf("SegmentOf(%v) = %v, want %v", arc.Start, s, w)
		}
	}
	check(interval.FullCircle)
	for i := 0; i < 3000; i++ {
		start := interval.Point(rng.Uint64())
		ln := rng.Uint64() >> uint(rng.IntN(60))
		if ln == 0 {
			ln = 1
		}
		check(interval.Segment{Start: start, Len: ln})
	}
	// Wrapping arcs crossing 0.
	for i := 0; i < 200; i++ {
		check(interval.Segment{Start: interval.Point(^uint64(0) - rng.Uint64()>>40), Len: 1 << 41})
	}
}

// TestOlistGrowShrink pushes the list through a full grow/shrink cycle so
// every split/merge path fires.
func TestOlistGrowShrink(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	var l olist
	var ref refList
	for i := 0; i < 5000; i++ {
		p := interval.Point(rng.Uint64())
		h := Handle(i + 1)
		l.insert(p, h)
		ref.insert(p, h)
	}
	checkAgainstRef(t, 5000, &l, &ref)
	for len(ref.pts) > 0 {
		var i int
		switch rng.IntN(3) {
		case 0:
			i = 0
		case 1:
			i = len(ref.pts) - 1
		default:
			i = rng.IntN(len(ref.pts))
		}
		l.removeAt(i)
		ref.removeAt(i)
		if len(ref.pts)%61 == 0 {
			checkAgainstRef(t, len(ref.pts), &l, &ref)
		}
	}
	if l.size() != 0 || len(l.chunks) != 0 {
		t.Fatalf("drained list not empty: size %d, %d chunks", l.size(), len(l.chunks))
	}
	// The list must be reusable after draining.
	if i, ok := l.insert(42, 1); !ok || i != 0 {
		t.Fatalf("insert after drain = (%d,%v)", i, ok)
	}
}

// TestOlistClone: mutations after a clone do not leak between copies.
func TestOlistClone(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	var l olist
	for i := 0; i < 1000; i++ {
		l.insert(interval.Point(rng.Uint64()), Handle(i+1))
	}
	c := l.clone()
	for i := 0; i < 500; i++ {
		c.removeAt(rng.IntN(c.size()))
		l.insert(interval.Point(rng.Uint64()), Handle(2000+i))
	}
	if l.size() != 1500 || c.size() != 500 {
		t.Fatalf("sizes after divergence: %d, %d", l.size(), c.size())
	}
	prev := interval.Point(0)
	c.scan(func(i int, p interval.Point, _ Handle) {
		if i > 0 && p <= prev {
			t.Fatalf("clone unsorted at %d", i)
		}
		prev = p
	})
}
