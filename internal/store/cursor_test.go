package store

import (
	"fmt"
	"testing"

	"condisc/internal/interval"
)

// cursorEngines opens one store per engine for a subtest sweep.
func cursorEngines(t *testing.T) map[string]Store {
	t.Helper()
	ls, err := OpenLog(t.TempDir(), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	return map[string]Store{"mem": NewMem(), "log": ls}
}

// TestCursorRingOrder: a cursor walks a wrapping segment clockwise from
// the segment start, in batches, visiting exactly the segment's items.
func TestCursorRingOrder(t *testing.T) {
	for name, s := range cursorEngines(t) {
		t.Run(name, func(t *testing.T) {
			// 64 items spread over the whole circle.
			const n = 64
			step := ^uint64(0)/n + 1
			for i := 0; i < n; i++ {
				if err := s.Put(interval.Point(uint64(i)*step), fmt.Sprintf("k%02d", i), []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			// A wrapping segment: starts at item 48, wraps to item 16.
			seg := interval.Segment{Start: interval.Point(48 * step), Len: 32 * step}
			cur := s.Cursor(seg)
			defer cur.Close()
			var got []Item
			for {
				batch, err := cur.Next(5)
				if err != nil {
					t.Fatal(err)
				}
				if batch == nil {
					break
				}
				if len(batch) > 5 {
					t.Fatalf("batch of %d exceeds max 5", len(batch))
				}
				got = append(got, batch...)
			}
			if len(got) != 32 {
				t.Fatalf("cursor visited %d items, want 32", len(got))
			}
			for i, it := range got {
				want := (48 + i) % n
				if it.Key != fmt.Sprintf("k%02d", want) {
					t.Fatalf("position %d: got %s, want k%02d (ring order violated)", i, it.Key, want)
				}
				if i > 0 {
					a := interval.CWDist(seg.Start, got[i-1].Point)
					b := interval.CWDist(seg.Start, it.Point)
					if b < a {
						t.Fatalf("clockwise order violated at %d", i)
					}
				}
			}
		})
	}
}

// TestCursorSeekResumes: Seek(p, key) continues strictly after that
// position — the resume step of an interrupted streaming handoff — and a
// fresh cursor resumed at item k yields exactly the items a full walk
// yields after position k.
func TestCursorSeekResumes(t *testing.T) {
	for name, s := range cursorEngines(t) {
		t.Run(name, func(t *testing.T) {
			const n = 40
			step := ^uint64(0)/n + 1
			for i := 0; i < n; i++ {
				if err := s.Put(interval.Point(uint64(i)*step), fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			seg := interval.Segment{Start: interval.Point(30 * step), Len: 20 * step} // wraps
			full := drainCursor(t, s.Cursor(seg))
			for _, k := range []int{0, 1, 7, len(full) - 2, len(full) - 1} {
				cur := s.Cursor(seg)
				cur.Seek(full[k].Point, full[k].Key)
				rest := drainCursor(t, cur)
				if len(rest) != len(full)-k-1 {
					t.Fatalf("resume after %d: %d items, want %d", k, len(rest), len(full)-k-1)
				}
				for i, it := range rest {
					if it.Key != full[k+1+i].Key {
						t.Fatalf("resume after %d diverged at %d: %s vs %s", k, i, it.Key, full[k+1+i].Key)
					}
				}
			}
			// Same-point multi-key resume: two keys at one point.
			p := interval.Point(5 * step)
			s.Put(p, "aa", []byte("1"))
			s.Put(p, "ab", []byte("2"))
			cur := s.Cursor(interval.FullCircle)
			cur.Seek(p, "aa")
			next, err := cur.Next(1)
			if err != nil || len(next) != 1 || next[0].Key != "ab" {
				t.Fatalf("same-point resume: got %v %v, want key ab", next, err)
			}
		})
	}
}

// TestCursorToleratesMutation: deleting already-visited items (the
// sender-side commit of a handoff) between batches does not disturb the
// remaining walk.
func TestCursorToleratesMutation(t *testing.T) {
	for name, s := range cursorEngines(t) {
		t.Run(name, func(t *testing.T) {
			const n = 30
			step := ^uint64(0)/n + 1
			for i := 0; i < n; i++ {
				if err := s.Put(interval.Point(uint64(i)*step), fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			cur := s.Cursor(interval.FullCircle)
			defer cur.Close()
			seen := 0
			for {
				batch, err := cur.Next(4)
				if err != nil {
					t.Fatal(err)
				}
				if batch == nil {
					break
				}
				seen += len(batch)
				for _, it := range batch { // delete behind the cursor
					if err := s.Delete(it.Point, it.Key); err != nil {
						t.Fatal(err)
					}
				}
			}
			if seen != n {
				t.Fatalf("cursor saw %d items under concurrent deletes, want %d", seen, n)
			}
			if s.Len() != 0 {
				t.Fatalf("%d items left after deleting everything visited", s.Len())
			}
		})
	}
}

// TestDeleteRange: the exported bulk removal drops exactly the segment,
// and on the log engine survives a reopen (the tombstone is durable).
func TestDeleteRange(t *testing.T) {
	dir := t.TempDir()
	ls, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Store{"mem": NewMem(), "log": ls} {
		t.Run(name, func(t *testing.T) {
			const n = 32
			step := ^uint64(0)/n + 1
			for i := 0; i < n; i++ {
				if err := s.Put(interval.Point(uint64(i)*step), fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			seg := interval.Segment{Start: interval.Point(8 * step), Len: 8 * step}
			if err := s.DeleteRange(seg); err != nil {
				t.Fatal(err)
			}
			if s.Len() != n-8 {
				t.Fatalf("DeleteRange left %d items, want %d", s.Len(), n-8)
			}
			for _, it := range scanItems(t, s, interval.FullCircle) {
				if seg.Contains(it.Point) {
					t.Fatalf("item %s survived DeleteRange", it.Key)
				}
			}
		})
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 24 {
		t.Fatalf("reopened log has %d items, want 24 (range tombstone not durable)", r.Len())
	}
}

func drainCursor(t *testing.T, cur Cursor) []Item {
	t.Helper()
	defer cur.Close()
	var out []Item
	for {
		batch, err := cur.Next(7)
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			return out
		}
		out = append(out, batch...)
	}
}
