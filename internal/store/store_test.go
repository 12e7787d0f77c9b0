package store

import (
	"bytes"
	"errors"
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
			s, err := OpenLog(t.TempDir(), LogOptions{segmentBytes: 1 << 10, compactAt: 1 << 11})
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

// scanItems collects seg's items through Scan — the one walk every content
// assertion in this package reads a store back with. It reports a failure
// with t.Error, so it is safe off the test's own goroutine.
func scanItems(t testing.TB, s Store, seg interval.Segment) []Item {
	t.Helper()
	var got []Item
	if err := Scan(s, seg, func(items []Item) error {
		got = append(got, items...)
		return nil
	}); err != nil {
		t.Error(err)
	}
	return got
}

// splitRange moves seg's items out of s into a new store of the same
// engine: Mem's own chunk-moving SplitRange, and for Log moveRange (copy,
// then drop) into a sibling WAL opened with the source's options.
func splitRange(t testing.TB, s Store, seg interval.Segment) Store {
	t.Helper()
	if m, ok := s.(*Mem); ok {
		out, err := m.SplitRange(seg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	child, err := OpenLog(t.TempDir(), s.(*Log).opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := moveRange(s, child, seg); err != nil {
		t.Fatal(err)
	}
	return child
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

// TestStoreAscendOrdered: a walk yields ring order from the segment start
// ((point, key) order for the full circle), and a segment filter (including
// wrapping segments) matches a reference filter.
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
			got := scanItems(t, s, seg)
			for i := 1; i < len(got); i++ {
				a, b := got[i-1], got[i]
				da, db := interval.CWDist(seg.Start, a.Point), interval.CWDist(seg.Start, b.Point)
				if da > db || (da == db && a.Key >= b.Key) {
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
				t.Fatalf("seg %v: walk yielded %d items, want %d", seg, len(got), want)
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
	got := scanItems(t, s, interval.FullCircle)
	if len(got) != len(keys) {
		t.Fatalf("%s: walk yielded %d items, model %d", tag, len(got), len(keys))
	}
	for i, it := range got {
		want := keys[i]
		if got := modelKey(it.Point, it.Key); got != want {
			t.Fatalf("%s: item %d = %s, model %s", tag, i, got, want)
		}
		if string(it.Value) != ms.m[want] {
			t.Fatalf("%s: %s = %q, model %q", tag, want, it.Value, ms.m[want])
		}
	}
}

// TestStoreSplitMergeDifferential drives each engine through a random
// trace of puts, deletes, range splits (splitRange: copy-before-drop on
// Log), and merges, comparing against the model after every split/merge —
// the churn path the DHT exercises.
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
				moved := splitRange(t, s, seg)
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
		moved := splitRange(t, s, seg)
		if moved.Len() != 32 || s.Len() != 32 {
			t.Fatalf("wrap split: moved %d, kept %d, want 32/32", moved.Len(), s.Len())
		}
		for _, it := range scanItems(t, moved, interval.FullCircle) {
			if !seg.Contains(it.Point) {
				t.Fatalf("moved item %q outside segment", it.Key)
			}
		}
		if err := s.MergeFrom(moved); err != nil {
			t.Fatal(err)
		}
		Destroy(moved)

		// Full circle drains everything.
		all := splitRange(t, s, interval.FullCircle)
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
		for _, it := range scanItems(t, s, seg) {
			t.Fatalf("item %q survived drain", it.Key)
		}
	})
}

// TestClear: a full-circle DeleteRange — the last step of a MergeFrom —
// empties a store in one bulk drop and leaves it usable.
func TestClear(t *testing.T) {
	forEachEngine(t, func(t *testing.T, open func() Store) {
		s := open()
		defer s.Close()
		for i := 0; i < 50; i++ {
			mustPut(t, s, interval.Point(uint64(i)<<57), fmt.Sprintf("k%d", i), "v")
		}
		if err := s.DeleteRange(interval.FullCircle); err != nil {
			t.Fatal(err)
		}
		if s.Len() != 0 {
			t.Fatalf("full-circle DeleteRange left %d items", s.Len())
		}
		mustPut(t, s, 7, "again", "x") // the store stays usable
		if v, ok, _ := s.Get(7, "again"); !ok || string(v) != "x" {
			t.Fatal("put after the drop lost")
		}
	})
}

// TestConcurrentOppositeMerges: a.MergeFrom(b) racing b.MergeFrom(a) must
// never deadlock or fail — no merge holds both stores' locks, whatever the
// engines. Only Mem↔Mem also promises item conservation here (it steals
// the source list in one atomic step); a merge that involves Log documents
// that its source must not be mutated concurrently, trading that atomicity
// for crash-safe copy-before-drop ordering.
func TestConcurrentOppositeMerges(t *testing.T) {
	for name, pair := range map[string][2]string{"mem": {"mem", "mem"}, "log": {"log", "log"}, "mem-log": {"mem", "log"}} {
		t.Run(name, func(t *testing.T) {
			open := engines(t)
			a, b := open[pair[0]](), open[pair[1]]()
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
			if total := a.Len() + b.Len(); name == "mem" && total != 2*each {
				t.Fatalf("concurrent merges conserved %d of %d items", total, 2*each)
			}
		})
	}
}

// TestScan: Scan visits exactly what a cursor walk visits, in the cursor's
// ring order and in batches of at most ScanBatch; an fn error stops the
// walk and comes back; and fn may drop the range it is walking.
func TestScan(t *testing.T) {
	forEachEngine(t, func(t *testing.T, open func() Store) {
		s := open()
		defer s.Close()
		const n = 3*ScanBatch + 17
		step := ^uint64(0)/n + 1
		for i := 0; i < n; i++ {
			mustPut(t, s, interval.Point(uint64(i)*step), fmt.Sprintf("k%04d", i), fmt.Sprint(i))
		}
		for _, seg := range []interval.Segment{
			{Start: interval.Point(10 * step), Len: 2 * ScanBatch * step}, // plain
			{Start: interval.Point((n - 300) * step), Len: 600 * step},    // wraps
			interval.FullCircle,
		} {
			want := drainCursor(t, s.Cursor(seg))
			var got []Item
			if err := Scan(s, seg, func(items []Item) error {
				if len(items) == 0 || len(items) > ScanBatch {
					t.Fatalf("seg %v: batch of %d items", seg, len(items))
				}
				got = append(got, items...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(got) <= ScanBatch {
				t.Fatalf("seg %v: Scan visited %d items, cursor %d", seg, len(got), len(want))
			}
			for i := range got {
				if got[i].Point != want[i].Point || got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
					t.Fatalf("seg %v: item %d = %v, cursor %v", seg, i, got[i], want[i])
				}
			}
		}
		if first := scanItems(t, s, interval.FullCircle)[0]; first.Key != "k0000" {
			t.Fatalf("full-circle walk starts at %q, want the item at point 0", first.Key)
		}

		stop, calls := errors.New("stop"), 0
		if err := Scan(s, interval.FullCircle, func([]Item) error { calls++; return stop }); !errors.Is(err, stop) || calls != 1 {
			t.Fatalf("fn error: Scan = %v after %d calls, want %v after 1", err, calls, stop)
		}

		seg, seen := interval.Segment{Start: interval.Point(10 * step), Len: 2 * ScanBatch * step}, 0
		if err := Scan(s, seg, func(items []Item) error {
			seen += len(items)
			return s.DeleteRange(seg)
		}); err != nil {
			t.Fatal(err)
		}
		if seen != ScanBatch || s.Len() != n-2*ScanBatch {
			t.Fatalf("drop mid-walk: saw %d items (want one batch, %d), %d left (want %d)", seen, ScanBatch, s.Len(), n-2*ScanBatch)
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
