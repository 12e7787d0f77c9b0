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
// point range does not interleave with ours splices chunk pointers; a
// store of another engine is copied, then dropped (moveRange). The two
// locks are never held together (src's list is stolen under src's lock,
// absorbed under ours), so concurrent opposite-direction merges cannot
// deadlock.
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
	return moveRange(src, m, interval.FullCircle)
}

// DeleteRange removes every item in seg by chunk extraction, reading no
// values — the handoff-commit fast path.
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
	return &cursor[[]byte]{mu: &m.mu, l: &m.l, rs: ringRanges(seg), item: memItem}
}

func memItem(e entry[[]byte]) (Item, error) {
	return Item{Point: e.p, Key: e.key, Value: e.val}, nil
}

// Close is a no-op for the in-memory engine.
func (m *Mem) Close() error { return nil }

func (m *Mem) destroy() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.l.clear()
	return nil
}
