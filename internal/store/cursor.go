package store

import (
	"sync"

	"condisc/internal/interval"
)

// cursor is the Cursor of both engines: a ring-order walk over an engine's
// list[V] that takes the engine's lock once per batch and resumes by
// (point, key) position, so mutations between batches — including the
// range's own deletion — are tolerated. The engines differ only in item,
// which turns an entry into an Item under the lock: Mem hands out the
// resident value, Log checks it is still open and preads the value.
type cursor[V any] struct {
	mu   *sync.Mutex
	l    *list[V]
	item func(e entry[V]) (Item, error)

	rs       []prange
	ri       int
	afterP   interval.Point
	afterKey string
	resuming bool
}

func (c *cursor[V]) Seek(p interval.Point, key string) {
	c.afterP, c.afterKey, c.resuming = p, key, true
	for i, r := range c.rs {
		if r.contains(p) {
			c.ri = i
			return
		}
	}
	c.ri = len(c.rs) // position outside the segment: nothing left
}

func (c *cursor[V]) Next(max int) ([]Item, error) {
	if max <= 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Item
	var ierr error
	for c.ri < len(c.rs) && len(out) < max {
		r := c.rs[c.ri]
		p, key := r.lo, ""
		if c.resuming && r.contains(c.afterP) {
			// Strictly after (afterP, afterKey): key+"\x00" is the least
			// string above afterKey, so lowerBound lands one entry past it.
			p, key = c.afterP, c.afterKey+"\x00"
		}
		done := c.l.ascendFrom(r, p, key, func(e entry[V]) bool {
			if len(out) >= max {
				return false
			}
			var it Item
			if it, ierr = c.item(e); ierr != nil {
				return false
			}
			out = append(out, it)
			return true
		})
		if ierr != nil {
			return nil, ierr
		}
		if len(out) > 0 {
			last := out[len(out)-1]
			c.afterP, c.afterKey, c.resuming = last.Point, last.Key, true
		}
		if !done {
			break // max reached inside this range
		}
		c.ri++
	}
	return out, nil // nil once the segment is exhausted
}

func (c *cursor[V]) Close() error { return nil }
