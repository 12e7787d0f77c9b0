package store

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"condisc/internal/interval"
)

// engines lists every Store implementation under one constructor so each
// test runs identically against both.
func engines(t *testing.T) map[string]func() Store {
	t.Helper()
	return map[string]func() Store{
		"mem": func() Store { return NewMem() },
		"log": func() Store {
			// Tiny segments + eager compaction so the differential tests
			// exercise rotation and compaction, not just the happy path.
			s, err := OpenLog(t.TempDir(), LogOptions{SegmentBytes: 1 << 10, CompactAt: 1 << 11})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

func forEachEngine(t *testing.T, fn func(t *testing.T, open func() Store)) {
	for name, open := range engines(t) {
		t.Run(name, func(t *testing.T) { fn(t, open) })
	}
}

func mustPut(t *testing.T, s Store, p interval.Point, key, val string) {
	t.Helper()
	if err := s.Put(p, key, []byte(val)); err != nil {
		t.Fatalf("put %q: %v", key, err)
	}
}

func TestStoreBasic(t *testing.T) {
	forEachEngine(t, func(t *testing.T, open func() Store) {
		s := open()
		defer s.Close()
		mustPut(t, s, 10, "a", "1")
		mustPut(t, s, 20, "b", "2")
		mustPut(t, s, 10, "a", "1'") // overwrite
		if n := s.Len(); n != 2 {
			t.Fatalf("Len = %d, want 2", n)
		}
		v, ok, err := s.Get(10, "a")
		if err != nil || !ok || string(v) != "1'" {
			t.Fatalf("get a = %q %v %v", v, ok, err)
		}
		if _, ok, _ := s.Get(10, "zz"); ok {
			t.Fatal("phantom key")
		}
		if _, ok, _ := s.Get(11, "a"); ok {
			t.Fatal("key found at the wrong point")
		}
		if err := s.Delete(20, "b"); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(20, "b"); err != nil { // absent delete is a no-op
			t.Fatal(err)
		}
		if n := s.Len(); n != 1 {
			t.Fatalf("Len after delete = %d, want 1", n)
		}
		if err := s.Put(30, "empty", nil); err != nil { // empty values are legal
			t.Fatal(err)
		}
		v, ok, err = s.Get(30, "empty")
		if err != nil || !ok || len(v) != 0 {
			t.Fatalf("empty value round-trip = %q %v %v", v, ok, err)
		}
	})
}

// TestStoreAscendOrdered: Ascend yields (point, key) order, and a segment
// filter (including wrapping segments) matches a reference filter.
func TestStoreAscendOrdered(t *testing.T) {
	forEachEngine(t, func(t *testing.T, open func() Store) {
		s := open()
		defer s.Close()
		rng := rand.New(rand.NewPCG(7, 7))
		type ik struct {
			p   interval.Point
			key string
		}
		ref := map[ik]string{}
		for i := 0; i < 500; i++ {
			p := interval.Point(rng.Uint64())
			k := fmt.Sprintf("k%d", i%300) // some point-collisions via reuse
			v := fmt.Sprintf("v%d", i)
			mustPut(t, s, p, k, v)
			ref[ik{p, k}] = v
		}
		segs := []interval.Segment{
			interval.FullCircle,
			{Start: 1 << 62, Len: 1 << 63},
			{Start: ^interval.Point(0) - 1000, Len: 1 << 62}, // wraps
			{Start: 5, Len: 1},
		}
		for _, seg := range segs {
			var got []Item
			if err := s.Ascend(seg, func(it Item) bool { got = append(got, it); return true }); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(got); i++ {
				a, b := got[i-1], got[i]
				if a.Point > b.Point || (a.Point == b.Point && a.Key >= b.Key) {
					t.Fatalf("seg %v: out of order at %d: %v then %v", seg, i, a, b)
				}
			}
			want := 0
			for key, v := range ref {
				if seg.Contains(key.p) {
					want++
					found := false
					for _, it := range got {
						if it.Point == key.p && it.Key == key.key {
							if string(it.Value) != v {
								t.Fatalf("seg %v: %q = %q, want %q", seg, key.key, it.Value, v)
							}
							found = true
						}
					}
					if !found {
						t.Fatalf("seg %v: missing (%v, %q)", seg, key.p, key.key)
					}
				}
			}
			if len(got) != want {
				t.Fatalf("seg %v: Ascend yielded %d items, want %d", seg, len(got), want)
			}
		}
	})
}

// modelStore is the reference implementation the engines are checked
// against: a flat map plus brute-force range logic.
type modelStore struct {
	m map[string]string // "point/key" -> value
}

func modelKey(p interval.Point, key string) string { return fmt.Sprintf("%020d/%s", uint64(p), key) }

func (ms *modelStore) put(p interval.Point, key, val string) { ms.m[modelKey(p, key)] = val }
func (ms *modelStore) del(p interval.Point, key string)      { delete(ms.m, modelKey(p, key)) }

func (ms *modelStore) split(seg interval.Segment) *modelStore {
	out := &modelStore{m: map[string]string{}}
	for mk, v := range ms.m {
		var pu uint64
		var key string
		fmt.Sscanf(mk, "%020d/", &pu)
		key = mk[21:]
		if seg.Contains(interval.Point(pu)) {
			out.m[modelKey(interval.Point(pu), key)] = v
			delete(ms.m, mk)
		}
	}
	return out
}

func (ms *modelStore) merge(src *modelStore) {
	for k, v := range src.m {
		ms.m[k] = v
	}
	src.m = map[string]string{}
}

// checkEqual verifies a store's full content against the model.
func checkEqual(t *testing.T, tag string, s Store, ms *modelStore) {
	t.Helper()
	if s.Len() != len(ms.m) {
		t.Fatalf("%s: Len = %d, model %d", tag, s.Len(), len(ms.m))
	}
	var keys []string
	for k := range ms.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	err := s.Ascend(interval.FullCircle, func(it Item) bool {
		if i >= len(keys) {
			t.Fatalf("%s: extra item (%v, %q)", tag, it.Point, it.Key)
		}
		want := keys[i]
		if got := modelKey(it.Point, it.Key); got != want {
			t.Fatalf("%s: item %d = %s, model %s", tag, i, got, want)
		}
		if string(it.Value) != ms.m[want] {
			t.Fatalf("%s: %s = %q, model %q", tag, want, it.Value, ms.m[want])
		}
		i++
		return true
	})
	if err != nil {
		t.Fatalf("%s: ascend: %v", tag, err)
	}
	if i != len(keys) {
		t.Fatalf("%s: ascend stopped at %d of %d", tag, i, len(keys))
	}
}

// TestStoreSplitMergeDifferential drives each engine through a random
// trace of puts, deletes, range splits, and merges, comparing against the
// model after every split/merge — the churn path the DHT exercises.
func TestStoreSplitMergeDifferential(t *testing.T) {
	forEachEngine(t, func(t *testing.T, open func() Store) {
		s := open()
		defer s.Close()
		ms := &modelStore{m: map[string]string{}}
		rng := rand.New(rand.NewPCG(11, 13))
		for op := 0; op < 1200; op++ {
			switch r := rng.IntN(10); {
			case r < 5:
				p := interval.Point(rng.Uint64N(1<<16) << 48) // clustered points: exercises chunk boundaries
				k := fmt.Sprintf("k%d", rng.IntN(400))
				v := fmt.Sprintf("v%d", op)
				mustPut(t, s, p, k, v)
				ms.put(p, k, v)
			case r < 7:
				p := interval.Point(rng.Uint64N(1<<16) << 48)
				k := fmt.Sprintf("k%d", rng.IntN(400))
				if err := s.Delete(p, k); err != nil {
					t.Fatal(err)
				}
				ms.del(p, k)
			default:
				seg := interval.Segment{Start: interval.Point(rng.Uint64()), Len: rng.Uint64N(1 << 63)}
				moved, err := s.SplitRange(seg)
				if err != nil {
					t.Fatal(err)
				}
				mm := ms.split(seg)
				checkEqual(t, fmt.Sprintf("op %d split", op), moved, mm)
				checkEqual(t, fmt.Sprintf("op %d remainder", op), s, ms)
				if err := s.MergeFrom(moved); err != nil {
					t.Fatal(err)
				}
				ms.merge(mm)
				if moved.Len() != 0 {
					t.Fatalf("op %d: merge left %d items in src", op, moved.Len())
				}
				if err := Destroy(moved); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkEqual(t, "final", s, ms)
	})
}

// TestStoreSplitWrapsAndFullCircle: explicit wrap-around and full-circle
// splits, plus cross-engine MergeFrom.
func TestStoreSplitWrapsAndFullCircle(t *testing.T) {
	forEachEngine(t, func(t *testing.T, open func() Store) {
		s := open()
		defer s.Close()
		for i := 0; i < 64; i++ {
			mustPut(t, s, interval.Point(uint64(i)<<58), fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
		}
		// Wrap: top quarter plus bottom quarter.
		seg := interval.Segment{Start: 3 << 62, Len: 1 << 63}
		moved, err := s.SplitRange(seg)
		if err != nil {
			t.Fatal(err)
		}
		if moved.Len() != 32 || s.Len() != 32 {
			t.Fatalf("wrap split: moved %d, kept %d, want 32/32", moved.Len(), s.Len())
		}
		moved.Ascend(interval.FullCircle, func(it Item) bool {
			if !seg.Contains(it.Point) {
				t.Fatalf("moved item %q outside segment", it.Key)
			}
			return true
		})
		if err := s.MergeFrom(moved); err != nil {
			t.Fatal(err)
		}
		Destroy(moved)

		// Full circle drains everything.
		all, err := s.SplitRange(interval.FullCircle)
		if err != nil {
			t.Fatal(err)
		}
		if all.Len() != 64 || s.Len() != 0 {
			t.Fatalf("full-circle split: moved %d, kept %d", all.Len(), s.Len())
		}
		// Cross-engine merge: absorb into a fresh Mem regardless of src engine.
		m := NewMem()
		if err := m.MergeFrom(all); err != nil {
			t.Fatal(err)
		}
		if m.Len() != 64 || all.Len() != 0 {
			t.Fatalf("cross-engine merge: dst %d, src %d", m.Len(), all.Len())
		}
		v, ok, _ := m.Get(5<<58, "k05")
		if !ok || !bytes.Equal(v, []byte("v5")) {
			t.Fatalf("item lost in cross-engine merge: %q %v", v, ok)
		}
		Destroy(all)
	})
}

// TestStoreSameEngineIdentity: merging a store into itself is a no-op.
func TestStoreSameEngineIdentity(t *testing.T) {
	forEachEngine(t, func(t *testing.T, open func() Store) {
		s := open()
		defer s.Close()
		mustPut(t, s, 1, "a", "x")
		if err := s.MergeFrom(s); err != nil {
			t.Fatal(err)
		}
		if s.Len() != 1 {
			t.Fatalf("self-merge changed Len to %d", s.Len())
		}
	})
}

// TestDrain: draining a range the way a handoff does — stream it out
// through a Cursor, then DeleteRange — yields exactly seg's items and
// leaves none of them behind.
func TestDrain(t *testing.T) {
	forEachEngine(t, func(t *testing.T, open func() Store) {
		s := open()
		defer s.Close()
		for i := 0; i < 32; i++ {
			mustPut(t, s, interval.Point(uint64(i)<<59), fmt.Sprintf("k%02d", i), "v")
		}
		seg := interval.Segment{Start: 1 << 62, Len: 1 << 62}
		var items []Item
		cur := s.Cursor(seg)
		for {
			batch, err := cur.Next(5)
			if err != nil {
				t.Fatal(err)
			}
			if batch == nil {
				break
			}
			items = append(items, batch...)
		}
		cur.Close()
		if err := s.DeleteRange(seg); err != nil {
			t.Fatal(err)
		}
		if len(items) != 8 {
			t.Fatalf("cursor yielded %d items of seg, want 8", len(items))
		}
		for _, it := range items {
			if !seg.Contains(it.Point) {
				t.Fatalf("drained %q outside segment", it.Key)
			}
		}
		if len(items)+s.Len() != 32 {
			t.Fatalf("drain lost items: %d + %d != 32", len(items), s.Len())
		}
		if err := s.Ascend(seg, func(it Item) bool { t.Fatalf("item %q survived drain", it.Key); return false }); err != nil {
			t.Fatal(err)
		}
	})
}

// TestClear: Clear empties a store in one bulk drop, without duplicating
// items anywhere.
func TestClear(t *testing.T) {
	forEachEngine(t, func(t *testing.T, open func() Store) {
		s := open()
		defer s.Close()
		for i := 0; i < 50; i++ {
			mustPut(t, s, interval.Point(uint64(i)<<57), fmt.Sprintf("k%d", i), "v")
		}
		if err := Clear(s); err != nil {
			t.Fatal(err)
		}
		if s.Len() != 0 {
			t.Fatalf("Clear left %d items", s.Len())
		}
		mustPut(t, s, 7, "again", "x") // the store stays usable
		if v, ok, _ := s.Get(7, "again"); !ok || string(v) != "x" {
			t.Fatal("put after Clear lost")
		}
	})
}

// TestConcurrentOppositeMerges: a.MergeFrom(b) racing b.MergeFrom(a) must
// neither deadlock nor lose items. Only the Mem engine promises item
// conservation here (its same-engine merge steals the source list in one
// atomic step); Log documents that a merge's source must not be mutated
// concurrently, trading that atomicity for crash-safe copy-before-drop
// ordering.
func TestConcurrentOppositeMerges(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		open := func() Store { return NewMem() }
		a, b := open(), open()
		defer a.Close()
		defer b.Close()
		const each = 200
		for i := 0; i < each; i++ {
			mustPut(t, a, interval.Point(uint64(i)<<54), fmt.Sprintf("a%03d", i), "v")
			mustPut(t, b, interval.Point(uint64(i)<<54|1), fmt.Sprintf("b%03d", i), "v")
		}
		done := make(chan error, 2)
		go func() { done <- a.MergeFrom(b) }()
		go func() { done <- b.MergeFrom(a) }()
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		if total := a.Len() + b.Len(); total != 2*each {
			t.Fatalf("concurrent merges conserved %d of %d items", total, 2*each)
		}
	})
}

func TestOpenEngine(t *testing.T) {
	if _, err := Open("bogus", ""); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := Open("log", ""); err == nil {
		t.Fatal("log engine accepted without a directory")
	}
	m, err := Open("mem", "")
	if err != nil || m == nil {
		t.Fatalf("mem open: %v", err)
	}
	l, err := Open("log", t.TempDir())
	if err != nil {
		t.Fatalf("log open: %v", err)
	}
	l.Close()
}
