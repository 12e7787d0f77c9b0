package partition

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"condisc/internal/interval"
)

func pt(f float64) interval.Point { return interval.FromFloat(f) }

func TestInsertKeepsSorted(t *testing.T) {
	r := New()
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 1000; i++ {
		r.Insert(interval.Point(rng.Uint64()))
	}
	for i := 1; i < r.N(); i++ {
		if r.Point(i-1) >= r.Point(i) {
			t.Fatalf("points not sorted at %d", i)
		}
	}
}

func TestInsertDuplicate(t *testing.T) {
	r := New()
	if _, ok := r.Insert(pt(0.5)); !ok {
		t.Fatal("first insert failed")
	}
	if _, ok := r.Insert(pt(0.5)); ok {
		t.Fatal("duplicate insert should report false")
	}
	if r.N() != 1 {
		t.Fatalf("N = %d, want 1", r.N())
	}
}

func TestCoverBasic(t *testing.T) {
	r := FromPoints([]interval.Point{pt(0.25), pt(0.5), pt(0.75)})
	cases := []struct {
		p    float64
		want int
	}{
		{0.3, 0}, {0.25, 0}, {0.49, 0},
		{0.5, 1}, {0.6, 1},
		{0.75, 2}, {0.9, 2},
		{0.1, 2}, // wrapping segment [0.75, 0.25)
	}
	for _, c := range cases {
		if got := r.Cover(pt(c.p)); got != c.want {
			t.Errorf("Cover(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

// TestCoverSegmentConsistency: for any point set and query, the covering
// segment contains the query — the defining property of the decomposition.
func TestCoverSegmentConsistency(t *testing.T) {
	f := func(raw []uint64, q uint64) bool {
		if len(raw) == 0 {
			return true
		}
		pts := make([]interval.Point, len(raw))
		for i, v := range raw {
			pts[i] = interval.Point(v)
		}
		r := FromPoints(pts)
		p := interval.Point(q)
		return r.Segment(r.Cover(p)).Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSegmentsTile verifies the segments tile I exactly: lengths sum to 1
// and consecutive segments abut.
func TestSegmentsTile(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	pts := make([]interval.Point, 100)
	for i := range pts {
		pts[i] = interval.Point(rng.Uint64())
	}
	r := FromPoints(pts)
	var total uint64
	for i := 0; i < r.N(); i++ {
		s := r.Segment(i)
		total += s.Len
		if s.End() != r.Point(r.Successor(i)) {
			t.Fatalf("segment %d does not abut its successor", i)
		}
	}
	if total != 0 { // sum of all segment lengths = 2^64 ≡ 0
		t.Fatalf("segment lengths sum to %d, want 2^64 (overflow to 0)", total)
	}
}

func TestRemove(t *testing.T) {
	r := FromPoints([]interval.Point{pt(0.2), pt(0.4), pt(0.8)})
	if !r.Remove(pt(0.4)) {
		t.Fatal("Remove failed")
	}
	if r.Remove(pt(0.4)) {
		t.Fatal("double Remove should fail")
	}
	// The predecessor absorbs the segment: [0.2, 0.8) now covered by 0.2.
	if got := r.Cover(pt(0.5)); r.Point(got) != pt(0.2) {
		t.Errorf("after removal, 0.5 covered by %v", r.Point(got))
	}
}

func TestSmoothnessEquallySpaced(t *testing.T) {
	r := EquallySpaced(64)
	if s := r.Smoothness(); s != 1 {
		t.Errorf("equally spaced smoothness = %v, want 1", s)
	}
	if r.N() != 64 {
		t.Errorf("N = %d", r.N())
	}
}

func TestCoversOfArc(t *testing.T) {
	r := FromPoints([]interval.Point{pt(0.0), pt(0.25), pt(0.5), pt(0.75)})
	check := func(name string, arc interval.Segment, want ...int) {
		t.Helper()
		got := r.CoverHandlesOfArc(arc)
		if len(got) != len(want) {
			t.Fatalf("%s: CoverHandlesOfArc = %v, want the handles at %v", name, got, want)
		}
		for i := range got {
			if got[i] != r.HandleAt(want[i]) {
				t.Fatalf("%s: CoverHandlesOfArc = %v, want the handles at %v", name, got, want)
			}
		}
	}
	// Arc [0.3, 0.6) intersects segments of 0.25 and 0.5.
	check("inner", interval.Segment{Start: pt(0.3), Len: uint64(pt(0.3))}, 1, 2)
	// Wrapping arc [0.9, 0.1).
	check("wrapping", interval.Segment{Start: pt(0.9), Len: uint64(pt(0.2))}, 3, 0)
	check("full circle", interval.FullCircle, 0, 1, 2, 3)
}

// TestCoversOfArcExhaustive cross-checks CoverHandlesOfArc against a
// brute-force overlap scan on random rings.
func TestCoversOfArcExhaustive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.IntN(30)
		pts := make([]interval.Point, n)
		for i := range pts {
			pts[i] = interval.Point(rng.Uint64())
		}
		r := FromPoints(pts)
		arc := interval.Segment{Start: interval.Point(rng.Uint64()), Len: rng.Uint64N(1 << 62)}
		got := map[Handle]bool{}
		for _, h := range r.CoverHandlesOfArc(arc) {
			got[h] = true
		}
		for i := 0; i < r.N(); i++ {
			want := r.Segment(i).Overlaps(arc)
			if got[r.HandleAt(i)] != want {
				t.Fatalf("trial %d: server %d overlap=%v but CoverHandlesOfArc says %v (arc %v, seg %v)",
					trial, i, want, !want, arc, r.Segment(i))
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := FromPoints([]interval.Point{pt(0.1), pt(0.6)})
	c := r.Clone()
	c.Insert(pt(0.3))
	if r.N() != 2 || c.N() != 3 {
		t.Error("Clone is not deep")
	}
}

func TestSingleServerSegment(t *testing.T) {
	r := FromPoints([]interval.Point{pt(0.4)})
	if r.Segment(0) != interval.FullCircle {
		t.Errorf("single server should cover the full circle, got %v", r.Segment(0))
	}
	if r.Cover(pt(0.9)) != 0 {
		t.Error("single server covers everything")
	}
}
