// Package store provides the per-server ordered item storage behind the
// DHT (§2.1 item placement): items are keyed by (hash point, key) and kept
// in (point, key) order, so the item migration a Join or Leave triggers is
// a pure range move — O(log S + moved) — instead of a scan of the whole
// predecessor store.
//
// Two engines implement the interface:
//
//   - Mem: an in-memory chunked sorted list. Range splits move whole
//     chunks by pointer; only the two boundary chunks are copied.
//   - Log: a disk-backed engine with an append-only WAL, an in-memory
//     ordered index of disk locations, segment rotation and compaction,
//     and crash recovery on reopen (a torn or corrupt tail record is
//     truncated; everything acknowledged before it survives).
//
// The simulated DHT (package condisc) keeps one store per server; the TCP
// node (internal/p2p, cmd/dhnode) keeps one per process.
package store

import (
	"fmt"

	"condisc/internal/interval"
)

// Item is one stored item: the hash point it lives at, its key, and its
// value.
type Item struct {
	Point interval.Point
	Key   string
	Value []byte
}

// Store is an ordered item container keyed by (hash point, key).
//
// The three churn-path operations are the reason the interface exists:
// Ascend iterates a segment's items in (point, key) order, SplitRange
// moves a segment's items out as a new store of the same engine, and
// MergeFrom absorbs (and drains) another store. Implementations are safe
// for concurrent use; Ascend callbacks must not call back into the store.
type Store interface {
	// Put stores value under (p, key), replacing any previous value. The
	// value is copied (or persisted); the caller keeps ownership of its
	// slice.
	Put(p interval.Point, key string, value []byte) error
	// Get returns the value stored under (p, key). The returned slice must
	// not be modified.
	Get(p interval.Point, key string) (value []byte, ok bool, err error)
	// Delete removes (p, key); deleting an absent item is a no-op.
	Delete(p interval.Point, key string) error
	// Len returns the number of stored items.
	Len() int
	// Ascend calls fn for every item whose point lies in seg, in global
	// (point, key) order, until fn returns false.
	Ascend(seg interval.Segment, fn func(item Item) bool) error
	// SplitRange removes every item whose point lies in seg and returns
	// them as a new store of the same engine — the §2.1 Join step 3 range
	// handoff. Cost is O(log S + moved), independent of the items that
	// stay behind.
	SplitRange(seg interval.Segment) (Store, error)
	// DeleteRange removes every item whose point lies in seg without
	// reading any values — one range tombstone (Log) or chunk extraction
	// (Mem). It is the commit step of a streaming handoff: the items were
	// already copied elsewhere, only the removal remains.
	DeleteRange(seg interval.Segment) error
	// Cursor returns a batched iterator over seg's items in ring order
	// (clockwise from seg.Start). Unlike Ascend, a cursor acquires the
	// store lock only for the duration of each Next call, so a transfer
	// that interleaves network writes between batches never blocks the
	// store; mutations between batches are tolerated (the cursor re-seeks
	// by position). It is how a handoff streams a range in O(batch)
	// memory regardless of the range size.
	Cursor(seg interval.Segment) Cursor
	// MergeFrom moves every item of src into this store, leaving src
	// empty — the §2.1 Leave absorption. The source must not be mutated
	// concurrently with the merge; a crash or error mid-merge leaves
	// every item in at least one of the two stores (never in neither).
	MergeFrom(src Store) error
	// Close releases the store's resources (open files for disk engines).
	Close() error
}

// Open opens a store of the named engine: "mem" for the in-memory ordered
// store, "log" for the disk-backed WAL engine rooted at dir.
func Open(engine, dir string) (Store, error) {
	switch engine {
	case "mem":
		return NewMem(), nil
	case "log":
		if dir == "" {
			return nil, fmt.Errorf("store: engine %q requires a data directory", engine)
		}
		return OpenLog(dir, LogOptions{})
	default:
		return nil, fmt.Errorf("store: unknown engine %q (want mem or log)", engine)
	}
}

// Cursor is a batched, resumable iterator over one segment's items in
// ring order (clockwise from the segment start, (point, key)-ordered
// within each linear run). Obtained from Store.Cursor.
type Cursor interface {
	// Next returns up to max items and advances the cursor; it returns
	// (nil, nil) once the segment is exhausted. Each call re-acquires the
	// store lock, so callers may interleave arbitrary store operations —
	// or slow network writes — between batches.
	Next(max int) ([]Item, error)
	// Seek positions the cursor so that the next batch starts strictly
	// after (p, key) in ring order — the resume step of an interrupted
	// transfer. The position must lie inside the cursor's segment.
	Seek(p interval.Point, key string)
	// Close releases the cursor. The store itself stays open.
	Close() error
}

// conditionalPutter is the engines' atomic insert-if-absent path: the
// presence check and the write happen under one lock hold.
type conditionalPutter interface {
	putIfAbsent(p interval.Point, key string, value []byte) (bool, error)
}

// PutIfAbsent stores value under (p, key) only when the key is absent,
// reporting whether it wrote. Crash repair re-materializes lost items
// through this so a stale replica can never clobber a fresher write that
// landed after the absorb. The built-in engines check-and-insert under
// one lock; other stores fall back to get-then-put.
func PutIfAbsent(s Store, p interval.Point, key string, value []byte) (bool, error) {
	if cp, ok := s.(conditionalPutter); ok {
		return cp.putIfAbsent(p, key, value)
	}
	if _, ok, err := s.Get(p, key); err != nil {
		return false, err
	} else if ok {
		return false, nil
	}
	return true, s.Put(p, key, value)
}

// Clear removes every item of s without reading any values: one range
// tombstone (Log) or chunk drop (Mem). Use it when the items were already
// transferred and only the removal is needed (the last step of a
// cross-engine MergeFrom).
func Clear(s Store) error {
	return s.DeleteRange(interval.FullCircle)
}

// destroyer is implemented by engines whose Destroy must reclaim more than
// Close does (the WAL engine removes its directory).
type destroyer interface {
	destroy() error
}

// Destroy closes s and reclaims its underlying storage: a drained
// disk-backed store deletes its files (the §2.1 Leave end state), an
// in-memory store just drops its content.
func Destroy(s Store) error {
	if d, ok := s.(destroyer); ok {
		return d.destroy()
	}
	return s.Close()
}
