package store

import (
	"fmt"
	"testing"

	"condisc/internal/interval"
)

// checkVacated fails if any chunk-directory slot beyond len still holds a
// pointer: such a slot keeps a removed chunk — up to chunkMax entries and
// their values — reachable after the range was handed to another store.
func checkVacated[V any](t *testing.T, l *list[V], after string) {
	t.Helper()
	for i, c := range l.chunks[len(l.chunks):cap(l.chunks)] {
		if c != nil {
			t.Fatalf("after %s: directory slot %d (len %d, cap %d) still pins a chunk of %d entries",
				after, len(l.chunks)+i, len(l.chunks), cap(l.chunks), len(c.es))
		}
	}
}

// testVacatedSlots drives every path that shrinks the chunk directory.
// Points are 1..n so point p sits at rank p-1 and ranges are easy to aim.
func testVacatedSlots[V any](t *testing.T, val func(i int) V) {
	const n = 16 * chunkTarget
	var l list[V]
	for i := 1; i <= n; i++ {
		l.put(interval.Point(i), fmt.Sprintf("k%d", i), val(i))
	}
	if len(l.chunks) < 12 {
		t.Fatalf("only %d chunks: the test needs multi-chunk runs", len(l.chunks))
	}
	want := n
	extract := func(name string, r prange) {
		t.Helper()
		before := len(l.chunks)
		_, moved := l.extractRange(r)
		if moved == 0 {
			t.Fatalf("%s: nothing moved", name)
		}
		want -= moved
		if l.size() != want {
			t.Fatalf("%s: size %d, want %d", name, l.size(), want)
		}
		t.Logf("%s: moved %d entries, directory %d -> %d chunks", name, moved, before, len(l.chunks))
		checkVacated(t, &l, name)
	}
	// The join case: the upper part of the segment, i.e. the list's tail.
	extract("tail run", prange{lo: interval.Point(n - 5*chunkTarget), toTop: true})
	extract("interior run", prange{lo: interval.Point(2 * chunkTarget), hi: interval.Point(6 * chunkTarget)})
	extract("single-chunk run", prange{lo: 10, hi: 20})

	// dropChunk: delete the last chunk's entries one by one until the chunk
	// empties (or falls under chunkMin and merges away).
	before := len(l.chunks)
	for len(l.chunks) == before {
		e := l.chunks[len(l.chunks)-1].last()
		if _, ok := l.del(e.p, e.key); !ok {
			t.Fatalf("del %v/%s missed", e.p, e.key)
		}
	}
	checkVacated(t, &l, "dropChunk")
}

func TestShrunkDirectoryPinsNoChunks(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		testVacatedSlots(t, func(i int) []byte { return []byte{byte(i)} })
	})
	t.Run("log", func(t *testing.T) {
		testVacatedSlots(t, func(i int) lloc { return lloc{seg: 1, off: int64(i), vlen: 1} })
	})
}
