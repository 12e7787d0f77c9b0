package partition

import (
	"math/rand/v2"
	"testing"

	"condisc/internal/interval"
)

// TestHandlesStableAcrossChurn: a handle keeps naming the same point while
// indices shift under arbitrary insertions and removals.
func TestHandlesStableAcrossChurn(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	r := Grow(New(), 64, MultipleChooser(2), rng)
	if !r.checkHandles() {
		t.Fatal("handle invariant broken after Grow")
	}
	i, _ := r.Insert(interval.Point(1 << 40))
	h := r.HandleAt(i)
	for op := 0; op < 500; op++ {
		if rng.IntN(2) == 0 || r.N() < 8 {
			r.Insert(SingleChoice(rng))
		} else {
			j := rng.IntN(r.N())
			if r.HandleAt(j) == h {
				continue
			}
			r.RemoveAt(j)
		}
		if !r.checkHandles() {
			t.Fatalf("handle invariant broken at op %d", op)
		}
		idx, ok := r.IndexOfHandle(h)
		if !ok || r.Point(idx) != interval.Point(1<<40) {
			t.Fatalf("op %d: handle no longer names its point (ok=%v)", op, ok)
		}
	}
	idx, _ := r.IndexOfHandle(h)
	r.RemoveAt(idx)
	if _, ok := r.IndexOfHandle(h); ok {
		t.Fatal("handle survived removal")
	}
	if !r.checkHandles() {
		t.Fatal("handle invariant broken after removal")
	}
}

// TestIndexOfHandleAbsent: a handle that names no live server resolves to
// nothing. The last case is the one the handle table alone cannot tell:
// a departed handle's slot still holds its point, and a later server now
// sits at exactly that point.
func TestIndexOfHandleAbsent(t *testing.T) {
	r := FromPoints([]interval.Point{100, 200, 300, 400})
	departed := r.HandleAt(1)
	r.RemoveAt(1)
	gone := r.HandleAt(2) // the server at 400
	r.RemoveAt(2)
	i, _ := r.Insert(400)
	reissued := r.HandleAt(i)
	if !r.checkHandles() {
		t.Fatal("handle invariant broken")
	}
	for _, tc := range []struct {
		name string
		h    Handle
	}{
		{"handle 0", 0},
		{"never issued", reissued + 1},
		{"departed", departed},
		{"departed, point re-inserted", gone},
	} {
		if idx, ok := r.IndexOfHandle(tc.h); ok {
			t.Errorf("%s: IndexOfHandle(%d) = %d, want absent", tc.name, tc.h, idx)
		}
	}
	if idx, ok := r.IndexOfHandle(reissued); !ok || idx != i {
		t.Errorf("re-inserted point: IndexOfHandle = %d, %v; want %d", idx, ok, i)
	}
}

// TestCloneCopiesHandles: clones share no handle state with the original.
func TestCloneCopiesHandles(t *testing.T) {
	r := FromPoints([]interval.Point{100, 200, 300})
	c := r.Clone()
	h := r.HandleAt(1)
	if ch := c.HandleAt(1); ch != h {
		t.Fatalf("clone handle %d != original %d", ch, h)
	}
	c.RemoveAt(1)
	if _, ok := r.IndexOfHandle(h); !ok {
		t.Fatal("removing from clone affected the original")
	}
	if _, ok := c.IndexOfHandle(h); ok {
		t.Fatal("clone removal did not stick")
	}
	if i, ok := c.Insert(interval.Point(200)); !ok || !c.checkHandles() || c.Point(i) != 200 {
		t.Fatal("clone insert after removal broken")
	}
}

// TestInsertDuplicateKeepsHandle: re-inserting an existing point does not
// mint a new handle.
func TestInsertDuplicateKeepsHandle(t *testing.T) {
	r := New()
	i, ok := r.Insert(500)
	if !ok {
		t.Fatal("first insert failed")
	}
	h := r.HandleAt(i)
	if _, ok := r.Insert(500); ok {
		t.Fatal("duplicate insert succeeded")
	}
	if r.HandleAt(i) != h || !r.checkHandles() {
		t.Fatal("duplicate insert disturbed handles")
	}
}
