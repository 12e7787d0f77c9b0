package store

import (
	"slices"
	"sort"

	"condisc/internal/interval"
)

// This file implements the ordered container shared by both engines: a
// chunked sorted list of (point, key, V) entries ordered by (point, key).
// memstore instantiates it with V = []byte (the values themselves);
// logstore instantiates it with V = lloc (disk locations), so the same
// range machinery drives both the resident and the disk-backed engine.
//
// The representation mirrors partition/olist (a chunk directory over runs
// of the sorted sequence) but needs no Fenwick tree: stores are addressed
// by (point, key) and by range, never by rank. Chunks are larger than the
// ring's (512 vs 256) so that a range extraction is dominated by the two
// boundary-chunk copies — a resident-count-independent cost — rather than
// by the O(resident/chunk) directory splice.
//
// Costs (S = entries, m = chunks ≈ S/chunkTarget):
//
//	get / put / del          O(log S + chunk)      binary search + in-chunk memmove
//	ascendFrom               O(log S + visited)
//	extractRange             O(log S + moved/chunk + chunk + m)
//	absorb (disjoint ranges) O(m_src)              chunk-pointer append/prepend
const (
	chunkTarget = 512
	chunkMax    = 2 * chunkTarget // a chunk splits before reaching this
	chunkMin    = chunkTarget / 4 // below this a chunk merges into a neighbour
)

// entry is one stored (point, key, value) triple.
type entry[V any] struct {
	p   interval.Point
	key string
	val V
}

// entryBefore reports whether e sorts strictly before (p, key).
func entryBefore[V any](e entry[V], p interval.Point, key string) bool {
	return e.p < p || (e.p == p && e.key < key)
}

// chunk is one run of the sorted sequence.
type chunk[V any] struct {
	es []entry[V]
}

func (c *chunk[V]) last() entry[V] { return c.es[len(c.es)-1] }

// list is the chunked sorted sequence.
type list[V any] struct {
	chunks []*chunk[V]
	n      int
}

func (l *list[V]) size() int { return l.n }

func (l *list[V]) clear() {
	l.chunks, l.n = nil, 0
}

// lowerBound locates the first entry >= (p, key), returning its chunk and
// in-chunk index; ci == len(chunks) when every entry sorts before (p, key).
func (l *list[V]) lowerBound(p interval.Point, key string) (ci, i int) {
	c := sort.Search(len(l.chunks), func(i int) bool {
		return !entryBefore(l.chunks[i].last(), p, key)
	})
	if c == len(l.chunks) {
		return c, 0
	}
	es := l.chunks[c].es
	// The chunk's last entry is >= (p, key), so the in-chunk search hits.
	return c, sort.Search(len(es), func(k int) bool { return !entryBefore(es[k], p, key) })
}

// find locates the entry with exactly (p, key).
func (l *list[V]) find(p interval.Point, key string) (ci, i int, ok bool) {
	ci, i = l.lowerBound(p, key)
	if ci == len(l.chunks) || i == len(l.chunks[ci].es) {
		return ci, i, false
	}
	e := l.chunks[ci].es[i]
	return ci, i, e.p == p && e.key == key
}

func (l *list[V]) get(p interval.Point, key string) (V, bool) {
	if ci, i, ok := l.find(p, key); ok {
		return l.chunks[ci].es[i].val, true
	}
	var zero V
	return zero, false
}

// put inserts or replaces the entry (p, key), returning the displaced value.
func (l *list[V]) put(p interval.Point, key string, v V) (old V, replaced bool) {
	if len(l.chunks) == 0 {
		l.chunks = []*chunk[V]{{es: []entry[V]{{p, key, v}}}}
		l.n = 1
		return
	}
	ci, i, ok := l.find(p, key)
	if ci == len(l.chunks) { // beyond every chunk: append to the last one
		ci = len(l.chunks) - 1
		i = len(l.chunks[ci].es)
	}
	ck := l.chunks[ci]
	if ok {
		old, replaced = ck.es[i].val, true
		ck.es[i].val = v
		return
	}
	ck.es = append(ck.es, entry[V]{})
	copy(ck.es[i+1:], ck.es[i:])
	ck.es[i] = entry[V]{p, key, v}
	l.n++
	if len(ck.es) >= chunkMax {
		l.splitChunk(ci)
	}
	return
}

// del removes the entry (p, key), returning its value.
func (l *list[V]) del(p interval.Point, key string) (old V, ok bool) {
	ci, i, ok := l.find(p, key)
	if !ok {
		return old, false
	}
	ck := l.chunks[ci]
	old = ck.es[i].val
	copy(ck.es[i:], ck.es[i+1:])
	ck.es[len(ck.es)-1] = entry[V]{} // release the displaced value
	ck.es = ck.es[:len(ck.es)-1]
	l.n--
	if len(ck.es) == 0 {
		l.dropChunk(ci)
	} else if len(ck.es) < chunkMin && len(l.chunks) > 1 {
		l.mergeAround(ci)
	}
	return old, true
}

// prange is one ascending linear point range: p >= lo and, unless toTop,
// p < hi. Ring segments decompose into at most two of them (see ranges).
type prange struct {
	lo    interval.Point
	hi    interval.Point // exclusive upper bound; ignored when toTop
	toTop bool           // range extends to the top of the point space
}

// ranges decomposes a ring segment into its ascending linear point ranges,
// lowest first, so that per-range extraction preserves (point, key) order.
func ranges(s interval.Segment) []prange {
	if s.Len == 0 { // full circle
		return []prange{{toTop: true}}
	}
	end := s.Start + interval.Point(s.Len)
	switch {
	case end == 0:
		return []prange{{lo: s.Start, toTop: true}}
	case end < s.Start: // wraps past the top
		return []prange{{hi: end}, {lo: s.Start, toTop: true}}
	default:
		return []prange{{lo: s.Start, hi: end}}
	}
}

// contains reports whether p lies in the linear range.
func (r prange) contains(p interval.Point) bool {
	return p >= r.lo && (r.toTop || p < r.hi)
}

// ringRanges decomposes a ring segment like ranges, but ordered clockwise
// from the segment start — the order a streaming handoff walks the segment
// in, so that "resume after the last item received" is a single position.
func ringRanges(s interval.Segment) []prange {
	rs := ranges(s)
	if len(rs) == 2 {
		rs[0], rs[1] = rs[1], rs[0]
	}
	return rs
}

// ascendFrom calls fn for every entry of r from the first one >= (p, key)
// on, in (point, key) order, until fn returns false; it reports whether
// the walk ran to the upper end of r.
func (l *list[V]) ascendFrom(r prange, p interval.Point, key string, fn func(e entry[V]) bool) bool {
	ci, i := l.lowerBound(p, key)
	for ; ci < len(l.chunks); ci++ {
		es := l.chunks[ci].es
		for ; i < len(es); i++ {
			if !r.toTop && es[i].p >= r.hi {
				return true
			}
			if !fn(es[i]) {
				return false
			}
		}
		i = 0
	}
	return true
}

// ref returns a pointer to the value stored under (p, key), or nil, so the
// caller can compare and replace it in place (logstore compaction swings
// an entry to its copy this way). The pointer is good until the next
// mutation of the list.
func (l *list[V]) ref(p interval.Point, key string) *V {
	if ci, i, ok := l.find(p, key); ok {
		return &l.chunks[ci].es[i].val
	}
	return nil
}

// extractRange removes every entry in r and returns them as ordered chunks
// ready to seed another list. The boundary chunks are copied (O(chunk));
// interior chunks move by pointer, so the cost is independent of the
// entries that stay behind.
func (l *list[V]) extractRange(r prange) ([]*chunk[V], int) {
	if l.n == 0 {
		return nil, 0
	}
	c0, i0 := l.lowerBound(r.lo, "")
	if c0 == len(l.chunks) {
		return nil, 0
	}
	c1, i1 := len(l.chunks), 0
	if !r.toTop {
		c1, i1 = l.lowerBound(r.hi, "")
	}
	if c0 == c1 && i0 == i1 {
		return nil, 0
	}

	var out []*chunk[V]
	moved := 0
	if c0 == c1 {
		// The moved run lies inside one chunk.
		ck := l.chunks[c0]
		mv := append([]entry[V](nil), ck.es[i0:i1]...)
		k := i0 + copy(ck.es[i0:], ck.es[i1:])
		clearEntries(ck.es[k:])
		ck.es = ck.es[:k]
		out = append(out, &chunk[V]{es: mv})
		moved = len(mv)
	} else {
		startWhole := c0
		if i0 > 0 { // partial head chunk: copy its moved suffix out
			head := l.chunks[c0]
			if i0 < len(head.es) {
				mv := append([]entry[V](nil), head.es[i0:]...)
				clearEntries(head.es[i0:])
				head.es = head.es[:i0]
				out = append(out, &chunk[V]{es: mv})
				moved += len(mv)
			}
			startWhole = c0 + 1
		}
		for _, ck := range l.chunks[startWhole:c1] { // interior chunks move whole
			out = append(out, ck)
			moved += len(ck.es)
		}
		if c1 < len(l.chunks) && i1 > 0 { // partial tail chunk: copy its moved prefix out
			tail := l.chunks[c1]
			mv := append([]entry[V](nil), tail.es[:i1]...)
			k := copy(tail.es, tail.es[i1:])
			clearEntries(tail.es[k:])
			tail.es = tail.es[:k]
			out = append(out, &chunk[V]{es: mv})
			moved += len(mv)
		}
		// slices.Delete zeroes the vacated tail slots: a plain append-splice
		// would leave them pointing at the moved chunks, and when the run is
		// the tail of the list (a join takes the upper part of the segment)
		// nothing overwrites them, pinning every handed-off value.
		l.chunks = slices.Delete(l.chunks, startWhole, c1)
		c0 = startWhole // boundary position after the splice
	}
	l.n -= moved
	l.fixupAt(c0)
	l.fixupAt(c0 - 1)
	return out, moved
}

// seed installs extracted chunks as the whole content of an empty list.
// The chunks must be sorted and pairwise disjoint (extractRange output,
// appended in ascending range order).
func (l *list[V]) seed(cs []*chunk[V], count int) {
	for _, c := range cs {
		if len(c.es) > 0 {
			l.chunks = append(l.chunks, c)
		}
	}
	l.n += count
}

// absorb moves every entry of src into l, draining src. Disjoint point
// ranges (the churn case: a leaver's segment abuts its predecessor's)
// splice chunk pointers; interleaved ranges fall back to per-entry puts.
func (l *list[V]) absorb(src *list[V]) {
	if src.n == 0 {
		src.clear()
		return
	}
	switch {
	case l.n == 0:
		l.chunks, l.n = src.chunks, src.n
	case func() bool {
		last := l.chunks[len(l.chunks)-1].last()
		f := src.chunks[0].es[0]
		return entryBefore(last, f.p, f.key)
	}():
		l.chunks = append(l.chunks, src.chunks...)
		l.n += src.n
	case func() bool {
		last := src.chunks[len(src.chunks)-1].last()
		f := l.chunks[0].es[0]
		return entryBefore(last, f.p, f.key)
	}():
		l.chunks = append(src.chunks[:len(src.chunks):len(src.chunks)], l.chunks...)
		l.n += src.n
	default:
		for _, ck := range src.chunks {
			for _, e := range ck.es {
				l.put(e.p, e.key, e.val)
			}
		}
	}
	src.clear()
}

// --- chunk directory maintenance ---

func (l *list[V]) splitChunk(ci int) {
	ck := l.chunks[ci]
	half := len(ck.es) / 2
	right := &chunk[V]{es: append([]entry[V](nil), ck.es[half:]...)}
	clearEntries(ck.es[half:])
	ck.es = ck.es[:half:half]
	l.chunks = append(l.chunks, nil)
	copy(l.chunks[ci+2:], l.chunks[ci+1:])
	l.chunks[ci+1] = right
}

func (l *list[V]) dropChunk(ci int) {
	l.chunks = slices.Delete(l.chunks, ci, ci+1) // zeroes the vacated slot
}

// fixupAt repairs chunk ci after a range extraction: drops it if empty,
// folds it into a neighbour if undersized.
func (l *list[V]) fixupAt(ci int) {
	if ci < 0 || ci >= len(l.chunks) {
		return
	}
	ck := l.chunks[ci]
	switch {
	case len(ck.es) == 0:
		l.dropChunk(ci)
	case len(ck.es) < chunkMin && len(l.chunks) > 1:
		l.mergeAround(ci)
	}
}

// mergeAround folds chunk ci into a neighbour, re-splitting if oversized.
func (l *list[V]) mergeAround(ci int) {
	a, b := ci-1, ci
	if a < 0 {
		a, b = ci, ci+1
	}
	la, lb := l.chunks[a], l.chunks[b]
	la.es = append(la.es, lb.es...)
	l.dropChunk(b)
	if len(la.es) >= chunkMax {
		l.splitChunk(a)
	}
}

// clearEntries zeroes a retired slice region so it stops pinning values.
func clearEntries[V any](es []entry[V]) {
	for i := range es {
		es[i] = entry[V]{}
	}
}
