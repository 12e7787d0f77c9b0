package partition

import (
	"slices"
	"sort"

	"condisc/internal/interval"
)

// This file implements the ordered container behind Ring: a chunked sorted
// list of (point, handle) pairs. It replaces the flat sorted slices of the
// dense-index era, whose every Insert/Remove paid an O(n) memmove — the
// last O(n) term in the churn path once the graph and counter layers are
// handle-keyed.
//
// The chunk directory has two levels: blocks of up to blockLen chunks,
// each with its chunks' maxima and starting ranks, under a top level with
// the blocks' maxima and starting ranks. Churn publishes one snapshot per
// join or leave, so the directory is built to be cheap to publish: a
// publish copies only the top level (m/blockLen entries for m chunks), and
// the mutation that follows clones one block and one chunk.
//
// Costs (m = number of chunks ≈ n/chunkTarget, b = m/blockLen):
//
//	searchGT / coverPos / at  O(log n)                binary searches down the levels
//	insert / removeAt         O(log n + chunkMax + b) in-chunk memmove, starting ranks
//	scan                      O(n)                    sequential chunk walk
//	publishCopy               O(b)
//
// A chunk split or merge rebuilds the whole directory (O(m)) but happens at
// most once per Θ(chunkTarget) mutations, so its amortized cost is O(1).
const (
	chunkTarget = 256             // split threshold is 2×, merge threshold is 1/4×
	chunkMax    = 2 * chunkTarget // a chunk never exceeds this
	chunkMin    = chunkTarget / 4 // below this a chunk merges into a neighbour
	blockLen    = 16              // chunks per directory block
)

// chunk is one run of the sorted sequence, kept in parallel slices.
//
// gen is the list generation the chunk was created in. Once a publish has
// moved the list to a later generation, a published snapshot may reference
// the chunk, so its slices must never be mutated in place: mutators call
// ownChunk first, which clones an older-generation chunk and swaps the
// clone in — the snapshot keeps the original. Blocks follow the same rule.
type chunk struct {
	pts []interval.Point
	hs  []Handle
	gen uint64
}

// block is one run of the chunk directory.
type block struct {
	chunks []*chunk
	maxs   []interval.Point // maxs[c] = last point of chunks[c]
	start  []int            // start[c] = pairs in chunks[:c]
	n      int              // pairs in the block
	gen    uint64
}

// olist is the ordered (point, handle) sequence.
type olist struct {
	blocks []*block
	maxs   []interval.Point // maxs[b] = last point of blocks[b]
	start  []int            // start[b] = pairs in blocks[:b]
	n      int
	gen    uint64 // bumped by every publish
}

// pos addresses a chunk: chunk c of block b.
type pos struct{ b, c int }

func (l *olist) chunk(at pos) *chunk { return l.blocks[at.b].chunks[at.c] }

// next returns the chunk after at, wrapping to the first.
func (l *olist) next(at pos) pos {
	if at.c+1 < len(l.blocks[at.b].chunks) {
		return pos{at.b, at.c + 1}
	}
	if at.b+1 < len(l.blocks) {
		return pos{at.b + 1, 0}
	}
	return pos{}
}

// last returns the position of the list's last chunk.
func (l *olist) last() pos {
	b := len(l.blocks) - 1
	return pos{b, len(l.blocks[b].chunks) - 1}
}

// rankOf returns the rank of the first pair of the chunk at at.
func (l *olist) rankOf(at pos) int { return l.start[at.b] + l.blocks[at.b].start[at.c] }

// --- queries ---

// size returns the number of stored pairs.
func (l *olist) size() int { return l.n }

// firstGT returns the chunk holding the first point > p, or ok = false if
// no point exceeds p.
func (l *olist) firstGT(p interval.Point) (at pos, ok bool) {
	b := sort.Search(len(l.maxs), func(i int) bool { return l.maxs[i] > p })
	if b == len(l.maxs) {
		return pos{}, false
	}
	bl := l.blocks[b]
	return pos{b, sort.Search(len(bl.maxs), func(i int) bool { return bl.maxs[i] > p })}, true
}

// searchGT returns the rank of the first point > p (possibly n), matching
// the sort.Search contract the old flat slice offered.
func (l *olist) searchGT(p interval.Point) int {
	at, ok := l.firstGT(p)
	if !ok {
		return l.n
	}
	ck := l.chunk(at)
	return l.rankOf(at) + sort.Search(len(ck.pts), func(i int) bool { return ck.pts[i] > p })
}

// coverPos locates the chunk and offset of the last point <= p, wrapping
// to the global last element when p precedes every point.
func (l *olist) coverPos(p interval.Point) (pos, int) {
	at, ok := l.firstGT(p)
	if !ok {
		at = l.last()
		return at, len(l.chunk(at).pts) - 1
	}
	ck := l.chunk(at)
	if j := sort.Search(len(ck.pts), func(i int) bool { return ck.pts[i] > p }); j > 0 {
		return at, j - 1
	}
	switch {
	case at.c > 0:
		at.c--
	case at.b > 0:
		at.b--
		at.c = len(l.blocks[at.b].chunks) - 1
	default:
		at = l.last()
	}
	return at, len(l.chunk(at).pts) - 1
}

// coverSegOnly returns the last point <= p (wrapping) and its
// ring-successor point, with no rank computation. The list must be
// non-empty.
func (l *olist) coverSegOnly(p interval.Point) (interval.Point, interval.Point) {
	at, j := l.coverPos(p)
	ck := l.chunk(at)
	if j+1 < len(ck.pts) {
		return ck.pts[j], ck.pts[j+1]
	}
	return ck.pts[j], l.chunk(l.next(at)).pts[0]
}

// scanRing calls fn for consecutive ring positions starting at the cover
// of p (the last point <= p, wrapping), advancing chunk-wise — O(1) per
// step, no rank search — until fn returns false or the whole ring has
// been visited.
func (l *olist) scanRing(p interval.Point, fn func(pt interval.Point, h Handle) bool) {
	at, j := l.coverPos(p)
	for visited := 0; visited < l.n; visited++ {
		ck := l.chunk(at)
		if !fn(ck.pts[j], ck.hs[j]) {
			return
		}
		if j++; j == len(ck.pts) {
			at, j = l.next(at), 0
		}
	}
}

// find locates the chunk holding rank i and the offset of i within it.
func (l *olist) find(i int) (pos, int) {
	b := sort.Search(len(l.start), func(k int) bool { return l.start[k] > i }) - 1
	bl, r := l.blocks[b], i-l.start[b]
	c := sort.Search(len(bl.start), func(k int) bool { return bl.start[k] > r }) - 1
	return pos{b, c}, r - bl.start[c]
}

// at returns the pair with rank i.
func (l *olist) at(i int) (interval.Point, Handle) {
	at, off := l.find(i)
	ck := l.chunk(at)
	return ck.pts[off], ck.hs[off]
}

// pointAt returns just the point with rank i.
func (l *olist) pointAt(i int) interval.Point {
	at, off := l.find(i)
	return l.chunk(at).pts[off]
}

// handleAt returns just the handle with rank i.
func (l *olist) handleAt(i int) Handle {
	at, off := l.find(i)
	return l.chunk(at).hs[off]
}

// scan calls fn for every pair in rank order.
func (l *olist) scan(fn func(i int, p interval.Point, h Handle)) {
	i := 0
	for _, bl := range l.blocks {
		for _, ck := range bl.chunks {
			for j, p := range ck.pts {
				fn(i, p, ck.hs[j])
				i++
			}
		}
	}
}

// --- mutations ---

// ownChunk returns the chunk at at, first cloning it and its block if a
// publish since their creation may have shared them with a snapshot. Every
// mutator goes through it before touching a chunk or a block; the clones
// replace the originals in the live directory, so snapshots keep reading
// the originals. A cloned chunk gets one pair of headroom for the insert
// that usually follows.
func (l *olist) ownChunk(at pos) *chunk {
	bl := l.blocks[at.b]
	if bl.gen != l.gen {
		bl = &block{
			chunks: slices.Clone(bl.chunks),
			maxs:   slices.Clone(bl.maxs),
			start:  slices.Clone(bl.start),
			n:      bl.n,
			gen:    l.gen,
		}
		l.blocks[at.b] = bl
	}
	ck := bl.chunks[at.c]
	if ck.gen != l.gen {
		ck = &chunk{
			pts: append(make([]interval.Point, 0, len(ck.pts)+1), ck.pts...),
			hs:  append(make([]Handle, 0, len(ck.hs)+1), ck.hs...),
			gen: l.gen,
		}
		bl.chunks[at.c] = ck
	}
	return ck
}

// resized accounts for the chunk at at having grown by d pairs (d = ±1):
// the starting ranks after it shift, and its block's and the list's
// maxima follow its last point.
func (l *olist) resized(at pos, d int) {
	bl, ck := l.blocks[at.b], l.chunk(at)
	for c := at.c + 1; c < len(bl.start); c++ {
		bl.start[c] += d
	}
	for b := at.b + 1; b < len(l.start); b++ {
		l.start[b] += d
	}
	bl.n += d
	l.n += d
	if len(ck.pts) > 0 {
		bl.maxs[at.c] = ck.pts[len(ck.pts)-1]
		l.maxs[at.b] = bl.maxs[len(bl.maxs)-1]
	}
}

// publishCopy returns a frozen copy of the list for a Snapshot. It moves
// the list to a new generation, so every existing block and chunk is
// cloned before its next mutation, and copies the top level, which the
// live list edits in place. Cost: O(m/blockLen) for m chunks.
func (l *olist) publishCopy() olist {
	l.gen++
	return olist{blocks: slices.Clone(l.blocks), maxs: slices.Clone(l.maxs), start: slices.Clone(l.start), n: l.n}
}

// insert adds the pair (p, h), reporting the rank it received and whether
// it was inserted (false when p is already present).
func (l *olist) insert(p interval.Point, h Handle) (int, bool) {
	if l.n == 0 {
		l.rebuild([]*chunk{{pts: []interval.Point{p}, hs: []Handle{h}, gen: l.gen}})
		return 0, true
	}
	// The chunk to insert into: the first with max >= p, or the last.
	b := sort.Search(len(l.maxs), func(i int) bool { return l.maxs[i] >= p })
	if b == len(l.maxs) {
		b--
	}
	bl := l.blocks[b]
	c := sort.Search(len(bl.maxs), func(i int) bool { return bl.maxs[i] >= p })
	if c == len(bl.maxs) {
		c--
	}
	at := pos{b, c}
	ck := l.chunk(at)
	in := sort.Search(len(ck.pts), func(i int) bool { return ck.pts[i] >= p })
	rank := l.rankOf(at) + in
	if in < len(ck.pts) && ck.pts[in] == p {
		return rank, false
	}
	ck = l.ownChunk(at)
	ck.pts = slices.Insert(ck.pts, in, p)
	ck.hs = slices.Insert(ck.hs, in, h)
	l.resized(at, 1)
	if len(ck.pts) >= chunkMax {
		l.restructure()
	}
	return rank, true
}

// removeAt deletes the pair with rank i.
func (l *olist) removeAt(i int) {
	at, off := l.find(i)
	ck := l.ownChunk(at)
	ck.pts = slices.Delete(ck.pts, off, off+1)
	ck.hs = slices.Delete(ck.hs, off, off+1)
	l.resized(at, -1)
	// A lone undersized chunk has no neighbour to merge into.
	if len(ck.pts) == 0 || len(ck.pts) < chunkMin && l.n > len(ck.pts) {
		l.restructure()
	}
}

// restructure restores the chunk-size bounds after one chunk outgrew
// chunkMax or shrank below chunkMin: an empty chunk is dropped, an
// undersized one merges into a neighbour, an oversized one is halved, and
// the directory is rebuilt.
func (l *olist) restructure() {
	var out []*chunk
	for _, bl := range l.blocks {
		for _, ck := range bl.chunks {
			if len(ck.pts) == 0 {
				continue
			}
			if k := len(out) - 1; k >= 0 && (len(ck.pts) < chunkMin || len(out[k].pts) < chunkMin) {
				a := out[k]
				ck = &chunk{
					pts: append(append(make([]interval.Point, 0, len(a.pts)+len(ck.pts)), a.pts...), ck.pts...),
					hs:  append(append(make([]Handle, 0, len(a.hs)+len(ck.hs)), a.hs...), ck.hs...),
					gen: l.gen,
				}
				out = out[:k]
			}
			if len(ck.pts) >= chunkMax {
				// Both halves alias ck's arrays and keep its generation: the
				// left one is capped, and an older generation clones first.
				half := len(ck.pts) / 2
				out = append(out, &chunk{pts: ck.pts[:half:half], hs: ck.hs[:half:half], gen: ck.gen})
				ck = &chunk{pts: ck.pts[half:], hs: ck.hs[half:], gen: ck.gen}
			}
			out = append(out, ck)
		}
	}
	l.rebuild(out)
}

// rebuild lays the directory out afresh over the given chunks.
func (l *olist) rebuild(chunks []*chunk) {
	l.blocks, l.maxs, l.start, l.n = nil, nil, nil, 0
	for lo := 0; lo < len(chunks); lo += blockLen {
		bl := &block{chunks: slices.Clone(chunks[lo:min(lo+blockLen, len(chunks))]), gen: l.gen}
		for _, ck := range bl.chunks {
			bl.maxs = append(bl.maxs, ck.pts[len(ck.pts)-1])
			bl.start = append(bl.start, bl.n)
			bl.n += len(ck.pts)
		}
		l.blocks = append(l.blocks, bl)
		l.maxs = append(l.maxs, bl.maxs[len(bl.maxs)-1])
		l.start = append(l.start, l.n)
		l.n += bl.n
	}
}

// clone deep-copies the list.
func (l *olist) clone() olist {
	var chunks []*chunk
	for _, bl := range l.blocks {
		for _, ck := range bl.chunks {
			chunks = append(chunks, &chunk{pts: slices.Clone(ck.pts), hs: slices.Clone(ck.hs)})
		}
	}
	var c olist
	c.rebuild(chunks)
	return c
}
