package partition

import (
	"sort"

	"condisc/internal/interval"
)

// This file implements the ordered container behind Ring: a chunked sorted
// list of (point, handle) pairs with a Fenwick tree over chunk sizes. It
// replaces the flat sorted slices of the dense-index era, whose every
// Insert/Remove paid an O(n) memmove — the last O(n) term in the churn
// path once the graph and counter layers are handle-keyed.
//
// Costs (m = number of chunks ≈ n/chunkTarget):
//
//	searchGT / upperBound   O(log n)            binary search over chunk maxima + in-chunk
//	at (select by rank)     O(log m)            Fenwick descent + in-chunk offset
//	insert / removeAt       O(log n + chunkMax) in-chunk memmove of ≤ chunkMax pairs
//	scan                    O(n)                sequential chunk walk
//
// Splits and merges rebuild the chunk directory (O(m)) but happen at most
// once per Θ(chunkTarget) mutations, so their amortized cost is O(1).
const (
	chunkTarget = 256             // split threshold is 2×, merge threshold is 1/4×
	chunkMax    = 2 * chunkTarget // a chunk never exceeds this
	chunkMin    = chunkTarget / 4 // below this a chunk merges into a neighbour
)

// chunk is one run of the sorted sequence, kept in parallel slices.
//
// shared marks a chunk that is referenced by a published Snapshot: its
// pts/hs slice headers and backing arrays must never be mutated in place.
// Mutators call own() first, which clones a shared chunk and swaps the
// clone into the live directory — the snapshot keeps the original.
// (Setting shared=true while a snapshot reader walks pts/hs is not a
// race: shared is a distinct word that readers never touch.)
type chunk struct {
	pts    []interval.Point
	hs     []Handle
	shared bool
}

// olist is the ordered (point, handle) sequence.
type olist struct {
	chunks []*chunk
	maxs   []interval.Point // maxs[c] = last point of chunks[c]
	fen    []int            // Fenwick tree over chunk sizes (1-based)
	n      int
}

// --- Fenwick tree over chunk sizes ---

func (l *olist) fenRebuild() {
	l.fen = make([]int, len(l.chunks)+1)
	for i, c := range l.chunks {
		l.fenAdd(i, len(c.pts))
	}
}

func (l *olist) fenAdd(i, d int) {
	for i++; i < len(l.fen); i += i & -i {
		l.fen[i] += d
	}
}

// fenPrefix returns the total size of chunks [0, i).
func (l *olist) fenPrefix(i int) int {
	s := 0
	for ; i > 0; i -= i & -i {
		s += l.fen[i]
	}
	return s
}

// fenFind locates the chunk containing rank i, returning the chunk index
// and the offset of i within it.
func (l *olist) fenFind(i int) (ci, off int) {
	pos := 0
	rem := i
	mask := 1
	for mask < len(l.fen) {
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		next := pos + mask
		if next < len(l.fen) && l.fen[next] <= rem {
			rem -= l.fen[next]
			pos = next
		}
	}
	return pos, rem
}

// --- queries ---

// len returns the number of stored pairs.
func (l *olist) size() int { return l.n }

// chunkFor returns the index of the chunk whose range covers p for search
// purposes: the first chunk with max >= p (or the last chunk).
func (l *olist) chunkFor(p interval.Point) int {
	c := sort.Search(len(l.maxs), func(i int) bool { return l.maxs[i] >= p })
	if c == len(l.maxs) {
		c = len(l.maxs) - 1
	}
	return c
}

// searchGT returns the rank of the first point > p (possibly n), matching
// the sort.Search contract the old flat slice offered.
func (l *olist) searchGT(p interval.Point) int {
	if l.n == 0 {
		return 0
	}
	c := sort.Search(len(l.maxs), func(i int) bool { return l.maxs[i] > p })
	if c == len(l.maxs) {
		return l.n
	}
	ck := l.chunks[c]
	in := sort.Search(len(ck.pts), func(i int) bool { return ck.pts[i] > p })
	return l.fenPrefix(c) + in
}

// coverPos locates the chunk and offset of the last point <= p, wrapping
// to the global last element when p precedes every point.
func (l *olist) coverPos(p interval.Point) (int, int) {
	c := sort.Search(len(l.maxs), func(i int) bool { return l.maxs[i] > p })
	if c == len(l.maxs) {
		return len(l.chunks) - 1, len(l.chunks[len(l.chunks)-1].pts) - 1
	}
	ck := l.chunks[c]
	j := sort.Search(len(ck.pts), func(i int) bool { return ck.pts[i] > p })
	switch {
	case j > 0:
		return c, j - 1
	case c > 0:
		return c - 1, len(l.chunks[c-1].pts) - 1
	default:
		return len(l.chunks) - 1, len(l.chunks[len(l.chunks)-1].pts) - 1
	}
}

// pairAndSucc returns the point at chunk position (c, j) and its
// ring-successor point (wrapping).
func (l *olist) pairAndSucc(c, j int) (interval.Point, interval.Point) {
	ck := l.chunks[c]
	if j+1 < len(ck.pts) {
		return ck.pts[j], ck.pts[j+1]
	}
	if c+1 < len(l.chunks) {
		return ck.pts[j], l.chunks[c+1].pts[0]
	}
	return ck.pts[j], l.chunks[0].pts[0]
}

// coverSegOnly returns the last point <= p (wrapping) and its
// ring-successor point, with no rank computation (no Fenwick descent). The
// list must be non-empty.
func (l *olist) coverSegOnly(p interval.Point) (interval.Point, interval.Point) {
	c, j := l.coverPos(p)
	return l.pairAndSucc(c, j)
}

// scanRing calls fn for consecutive ring positions starting at the cover
// of p (the last point <= p, wrapping), advancing chunk-wise — O(1) per
// step, no Fenwick descent — until fn returns false or the whole ring has
// been visited.
func (l *olist) scanRing(p interval.Point, fn func(pt interval.Point, h Handle) bool) {
	c, j := l.coverPos(p)
	for visited := 0; visited < l.n; visited++ {
		ck := l.chunks[c]
		if !fn(ck.pts[j], ck.hs[j]) {
			return
		}
		j++
		if j == len(ck.pts) {
			j = 0
			c++
			if c == len(l.chunks) {
				c = 0
			}
		}
	}
}

// at returns the pair with rank i.
func (l *olist) at(i int) (interval.Point, Handle) {
	ci, off := l.fenFind(i)
	ck := l.chunks[ci]
	return ck.pts[off], ck.hs[off]
}

// pointAt returns just the point with rank i.
func (l *olist) pointAt(i int) interval.Point {
	ci, off := l.fenFind(i)
	return l.chunks[ci].pts[off]
}

// handleAt returns just the handle with rank i.
func (l *olist) handleAt(i int) Handle {
	ci, off := l.fenFind(i)
	return l.chunks[ci].hs[off]
}

// scan calls fn for every pair in rank order.
func (l *olist) scan(fn func(i int, p interval.Point, h Handle)) {
	i := 0
	for _, ck := range l.chunks {
		for j, p := range ck.pts {
			fn(i, p, ck.hs[j])
			i++
		}
	}
}

// --- mutations ---

// own returns chunk c, cloning it first if a published snapshot still
// references it (copy-on-write). Every mutator must go through own before
// touching a chunk's slices; the directory entry is replaced so snapshots
// keep reading the original.
func (l *olist) own(c int) *chunk {
	ck := l.chunks[c]
	if !ck.shared {
		return ck
	}
	cp := &chunk{
		pts: append([]interval.Point(nil), ck.pts...),
		hs:  append([]Handle(nil), ck.hs...),
	}
	l.chunks[c] = cp
	return cp
}

// publishCopy returns a frozen copy of the list for a Snapshot: every
// live chunk is marked shared (future mutations clone it), and the
// directory (chunk pointers, maxima, Fenwick tree) is freshly copied so
// the live list's in-place directory edits never alias the snapshot.
// Cost: O(m) for m chunks, independent of n.
func (l *olist) publishCopy() olist {
	for _, ck := range l.chunks {
		ck.shared = true
	}
	return olist{
		chunks: append([]*chunk(nil), l.chunks...),
		maxs:   append([]interval.Point(nil), l.maxs...),
		fen:    append([]int(nil), l.fen...),
		n:      l.n,
	}
}

// insert adds the pair (p, h), reporting the rank it received and whether
// it was inserted (false when p is already present).
func (l *olist) insert(p interval.Point, h Handle) (int, bool) {
	if len(l.chunks) == 0 {
		l.chunks = []*chunk{{pts: []interval.Point{p}, hs: []Handle{h}}}
		l.maxs = []interval.Point{p}
		l.fenRebuild()
		l.n = 1
		return 0, true
	}
	c := l.chunkFor(p)
	ck := l.chunks[c]
	in := sort.Search(len(ck.pts), func(i int) bool { return ck.pts[i] >= p })
	if in < len(ck.pts) && ck.pts[in] == p {
		return l.fenPrefix(c) + in, false
	}
	ck = l.own(c)
	ck.pts = insertAt(ck.pts, in, p)
	ck.hs = insertAt(ck.hs, in, h)
	l.fenAdd(c, 1)
	l.n++
	if in == len(ck.pts)-1 {
		l.maxs[c] = p
	}
	rank := l.fenPrefix(c) + in
	if len(ck.pts) >= chunkMax {
		l.split(c)
	}
	return rank, true
}

// removeAt deletes the pair with rank i.
func (l *olist) removeAt(i int) {
	c, off := l.fenFind(i)
	ck := l.own(c)
	ck.pts = deleteAt(ck.pts, off)
	ck.hs = deleteAt(ck.hs, off)
	l.fenAdd(c, -1)
	l.n--
	if len(ck.pts) == 0 {
		l.dropChunk(c)
		return
	}
	if off == len(ck.pts) {
		l.maxs[c] = ck.pts[len(ck.pts)-1]
	}
	if len(ck.pts) < chunkMin && len(l.chunks) > 1 {
		l.mergeAround(c)
	}
}

// split divides chunk c into two halves.
func (l *olist) split(c int) {
	ck := l.own(c)
	half := len(ck.pts) / 2
	right := &chunk{
		pts: append([]interval.Point(nil), ck.pts[half:]...),
		hs:  append([]Handle(nil), ck.hs[half:]...),
	}
	ck.pts = ck.pts[:half:half]
	ck.hs = ck.hs[:half:half]
	l.chunks = insertAt(l.chunks, c+1, right)
	l.maxs = insertAt(l.maxs, c+1, l.maxs[c])
	l.maxs[c] = ck.pts[half-1]
	l.fenRebuild()
}

// dropChunk removes the (empty) chunk c from the directory.
func (l *olist) dropChunk(c int) {
	l.chunks = deleteAt(l.chunks, c)
	l.maxs = deleteAt(l.maxs, c)
	l.fenRebuild()
}

// mergeAround folds the undersized chunk c into a neighbour, re-splitting
// if the result is oversized.
func (l *olist) mergeAround(c int) {
	dst := c - 1
	if dst < 0 {
		dst = c + 1
	}
	a, b := dst, c
	if a > b {
		a, b = b, a
	}
	la, lb := l.own(a), l.chunks[b]
	la.pts = append(la.pts, lb.pts...)
	la.hs = append(la.hs, lb.hs...)
	l.maxs[a] = la.pts[len(la.pts)-1]
	l.chunks = deleteAt(l.chunks, b)
	l.maxs = deleteAt(l.maxs, b)
	l.fenRebuild()
	if len(la.pts) >= chunkMax {
		l.split(a)
	}
}

// clone deep-copies the list.
func (l *olist) clone() olist {
	c := olist{
		chunks: make([]*chunk, len(l.chunks)),
		maxs:   append([]interval.Point(nil), l.maxs...),
		fen:    append([]int(nil), l.fen...),
		n:      l.n,
	}
	for i, ck := range l.chunks {
		c.chunks[i] = &chunk{
			pts: append([]interval.Point(nil), ck.pts...),
			hs:  append([]Handle(nil), ck.hs...),
		}
	}
	return c
}

func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func deleteAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}
