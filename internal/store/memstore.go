package store

import (
	"sync"

	"condisc/internal/interval"
)

// Mem is the in-memory engine: a chunked sorted list of items ordered by
// (point, key). Splits and merges move whole chunks by pointer, so a range
// move costs O(log S + moved/chunk + chunk) regardless of how many items
// stay behind.
type Mem struct {
	mu sync.Mutex
	l  list[[]byte]
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// Put stores a copy of value under (p, key).
func (m *Mem) Put(p interval.Point, key string, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.l.put(p, key, append([]byte(nil), value...))
	return nil
}

// putIfAbsent inserts a copy of value only when (p, key) is absent; the
// check and the insert share one lock hold.
func (m *Mem) putIfAbsent(p interval.Point, key string, value []byte) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.l.get(p, key); ok {
		return false, nil
	}
	m.l.put(p, key, append([]byte(nil), value...))
	return true, nil
}

// Get returns the value under (p, key); the slice must not be modified.
func (m *Mem) Get(p interval.Point, key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.l.get(p, key)
	return v, ok, nil
}

// Delete removes (p, key) if present.
func (m *Mem) Delete(p interval.Point, key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.l.del(p, key)
	return nil
}

// Len returns the number of stored items.
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.l.size()
}

// Ascend iterates seg's items in (point, key) order.
func (m *Mem) Ascend(seg interval.Segment, fn func(item Item) bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range ranges(seg) {
		if !m.l.ascendRange(r, func(e entry[[]byte]) bool {
			return fn(Item{Point: e.p, Key: e.key, Value: e.val})
		}) {
			return nil
		}
	}
	return nil
}

// SplitRange moves seg's items out into a new Mem store.
func (m *Mem) SplitRange(seg interval.Segment) (Store, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := &Mem{}
	for _, r := range ranges(seg) { // ascending ranges keep the seeded chunks sorted
		cs, cnt := m.l.extractRange(r)
		out.l.seed(cs, cnt)
	}
	return out, nil
}

// MergeFrom absorbs src's items, draining it. Merging another Mem whose
// point range does not interleave with ours splices chunk pointers. The
// two locks are never held together (src's list is stolen under src's
// lock, absorbed under ours), so concurrent opposite-direction merges
// cannot deadlock.
func (m *Mem) MergeFrom(src Store) error {
	if sm, ok := src.(*Mem); ok {
		if sm == m {
			return nil
		}
		sm.mu.Lock()
		stolen := sm.l
		sm.l = list[[]byte]{}
		sm.mu.Unlock()
		m.mu.Lock()
		m.l.absorb(&stolen)
		m.mu.Unlock()
		return nil
	}
	// Cross-engine: copy-before-drop (see Log.MergeFrom) — an error mid-
	// merge leaves every item in at least one store.
	var items []Item
	if err := src.Ascend(interval.FullCircle, func(it Item) bool {
		items = append(items, it)
		return true
	}); err != nil {
		return err
	}
	m.mu.Lock()
	for _, it := range items {
		m.l.put(it.Point, it.Key, it.Value)
	}
	m.mu.Unlock()
	return Clear(src)
}

// DeleteRange removes every item in seg by chunk extraction, reading no
// values — the handoff-commit / Clear fast path.
func (m *Mem) DeleteRange(seg interval.Segment) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range ranges(seg) {
		m.l.extractRange(r)
	}
	return nil
}

// Cursor returns a batched ring-order iterator over seg.
func (m *Mem) Cursor(seg interval.Segment) Cursor {
	return &memCursor{m: m, rs: ringRanges(seg)}
}

// memCursor resumes by (point, key) position, so mutations between
// batches — including the range's own deletion — are tolerated.
type memCursor struct {
	m        *Mem
	rs       []prange
	ri       int
	afterP   interval.Point
	afterKey string
	resuming bool
}

func (c *memCursor) Seek(p interval.Point, key string) {
	c.afterP, c.afterKey, c.resuming = p, key, true
	for i, r := range c.rs {
		if r.contains(p) {
			c.ri = i
			return
		}
	}
	c.ri = len(c.rs) // position outside the segment: nothing left
}

func (c *memCursor) Next(max int) ([]Item, error) {
	if max <= 0 {
		return nil, nil
	}
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	var out []Item
	for c.ri < len(c.rs) && len(out) < max {
		r := c.rs[c.ri]
		p, key := r.lo, ""
		if c.resuming && r.contains(c.afterP) {
			// Strictly after (afterP, afterKey): key+"\x00" is the least
			// string above afterKey, so lowerBound lands one entry past it.
			p, key = c.afterP, c.afterKey+"\x00"
		}
		done := c.m.l.ascendFrom(r, p, key, func(e entry[[]byte]) bool {
			if len(out) >= max {
				return false
			}
			out = append(out, Item{Point: e.p, Key: e.key, Value: e.val})
			return true
		})
		if len(out) > 0 {
			last := out[len(out)-1]
			c.afterP, c.afterKey, c.resuming = last.Point, last.Key, true
		}
		if !done {
			break // max reached inside this range
		}
		c.ri++
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

func (c *memCursor) Close() error { return nil }

// Close is a no-op for the in-memory engine.
func (m *Mem) Close() error { return nil }

func (m *Mem) destroy() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.l.clear()
	return nil
}
