package cache

import (
	"fmt"
	"testing"

	"condisc/internal/continuous"
	"condisc/internal/interval"
	"condisc/internal/partition"
)

// TestInvalidateRegionIsLocal: only the cached copies inside the changed
// segment (plus their subtrees) are dropped; the rest of the active tree —
// and other items' trees — survive the churn event.
func TestInvalidateRegionIsLocal(t *testing.T) {
	s, rng := newSystem(512, 4, 9)
	n := s.Net.G.N()
	for i := 0; i < 2*n; i++ {
		s.Request(rng.IntN(n), "hot", rng)
	}
	for i := 0; i < 8; i++ {
		s.Request(rng.IntN(n), "cold", rng)
	}
	before := s.ActiveNodes("hot")
	coldBefore := s.ActiveNodes("cold")
	if before < 5 {
		t.Fatalf("active tree too small to test: %d", before)
	}

	// Invalidate the region around one specific depth>=1 copy.
	tr := s.trees["hot"]
	var victim continuous.TreeNode
	for z := range tr.active {
		if z.Depth >= 1 && tr.isLeaf(z) {
			victim = z
			break
		}
	}
	vp := victim.PointUnder(tr.root)
	seg := interval.Segment{Start: vp - 1, Len: 3}
	s.InvalidateRegion(seg)

	if _, ok := tr.active[victim]; ok {
		t.Error("copy inside the invalidated region survived")
	}
	after := s.ActiveNodes("hot")
	if after >= before {
		t.Errorf("nothing invalidated: %d -> %d", before, after)
	}
	// Locality: a tiny segment kills at most the victim's subtree, not the
	// whole tree.
	if after < before/2 {
		t.Errorf("invalidation not local: %d -> %d nodes", before, after)
	}
	if s.ActiveNodes("cold") != coldBefore {
		t.Error("unrelated item's tree damaged")
	}
	// The active sets must remain rooted subtrees (parents of active nodes
	// active), or collapse bookkeeping breaks later.
	for z := range tr.active {
		if z.Depth == 0 {
			continue
		}
		if _, ok := tr.active[z.Parent()]; !ok {
			t.Fatalf("orphaned active node %v after invalidation", z)
		}
	}
	// The point index and the trees must agree exactly.
	checkCopyIndex(t, s)
	// Requests keep working after invalidation.
	for i := 0; i < 64; i++ {
		if path, _ := s.Request(rng.IntN(n), "hot", rng); len(path) == 0 {
			t.Fatal("request failed after invalidation")
		}
	}
}

// checkCopyIndex asserts the sorted-by-point copy index holds exactly the
// non-root active nodes of every tree.
func checkCopyIndex(t *testing.T, s *System) {
	t.Helper()
	wantTotal := 0
	for item, tr := range s.trees {
		for z := range tr.active {
			if z.Depth == 0 {
				continue
			}
			wantTotal++
			if _, ok := s.copies.search(copyRef{p: z.PointUnder(tr.root), item: item, node: z}); !ok {
				t.Fatalf("active copy %v of %q missing from the point index", z, item)
			}
		}
	}
	if len(s.copies.refs) != wantTotal {
		t.Fatalf("point index has %d refs, trees have %d non-root nodes", len(s.copies.refs), wantTotal)
	}
	for i := 1; i < len(s.copies.refs); i++ {
		if refLess(s.copies.refs[i], s.copies.refs[i-1]) {
			t.Fatalf("point index unsorted at %d", i)
		}
	}
}

// TestSuppliedPreservedAcross1kChurnEvents is the counter-preservation
// property test for the §3 layer: across 1000 random joins and leaves,
// every surviving server's supply counter is bit-for-bit identical to its
// value when the requests stopped, and the copy index stays consistent
// with the active trees throughout.
func TestSuppliedPreservedAcross1kChurnEvents(t *testing.T) {
	s, rng := newSystem(256, 5, 11)
	n := s.Net.G.N()
	for i := 0; i < 8*n; i++ {
		s.Request(rng.IntN(n), fmt.Sprintf("item%d", i%7), rng)
	}
	ring := s.Net.G.Ring

	want := make(map[partition.Handle]int64, len(s.Supplied))
	for h, v := range s.Supplied {
		want[h] = v
	}

	for op := 0; op < 1000; op++ {
		join := rng.IntN(2) == 0
		if ring.N() <= 32 {
			join = true
		} else if ring.N() >= 1024 {
			join = false
		}
		if join {
			idx, ok := s.Net.G.Insert(partition.MultipleChoice(ring, rng, 2))
			if !ok {
				continue
			}
			ring.Publish()
			s.InvalidateRegion(ring.Segment(idx))
		} else {
			victim := rng.IntN(ring.N())
			h := ring.HandleAt(victim)
			seg := ring.Segment(victim)
			s.Net.G.Remove(victim)
			ring.Publish()
			s.Net.Forget(h)
			s.Forget(h)
			s.InvalidateRegion(seg)
			delete(want, h)
		}
		if len(s.Supplied) != len(want) {
			t.Fatalf("op %d: %d supply entries, want %d", op, len(s.Supplied), len(want))
		}
		for h, v := range want {
			if s.Supplied[h] != v {
				t.Fatalf("op %d: survivor %d's supply changed: %d != %d", op, h, s.Supplied[h], v)
			}
		}
		if op%100 == 0 {
			checkCopyIndex(t, s)
		}
	}
	checkCopyIndex(t, s)
}
