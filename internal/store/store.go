// Package store provides the per-server ordered item storage behind the
// DHT (§2.1 item placement): items are keyed by (hash point, key) and kept
// in (point, key) order, so the item migration a Join or Leave triggers is
// a pure range move — O(log S + moved) — instead of a scan of the whole
// predecessor store.
//
// Two engines implement the interface:
//
//   - Mem: an in-memory chunked sorted list. Range drops and Mem-to-Mem
//     merges move whole chunks by pointer; only boundary chunks are copied.
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
// A range is walked or moved one way: Cursor reads it in bounded batches
// (Scan is the loop over it), the items are written wherever they go, and
// DeleteRange drops the range once they are safe there. MergeFrom is that
// sequence over a whole store. Implementations are safe for concurrent use.
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
	// DeleteRange removes every item whose point lies in seg without
	// reading any values — one range tombstone (Log) or chunk extraction
	// (Mem). It is the commit step of a handoff: the items were already
	// copied elsewhere, only the removal remains.
	DeleteRange(seg interval.Segment) error
	// Cursor returns a batched iterator over seg's items in ring order
	// (clockwise from seg.Start). A cursor acquires the store lock only
	// for the duration of each Next call, so a transfer that interleaves
	// network writes between batches never blocks the store; mutations
	// between batches are tolerated (the cursor re-seeks by position). It
	// is how a handoff streams a range in O(batch) memory regardless of
	// the range size.
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

// ScanBatch bounds the items one Scan batch (and so one fn call) holds.
const ScanBatch = 256

// Scan calls fn with seg's items in ring order, one cursor batch of at
// most ScanBatch items at a time, until the segment is exhausted or fn
// returns an error (which Scan returns). No store lock is held across fn,
// so fn may write to any store — s included — and memory held is one
// batch however large the range is.
func Scan(s Store, seg interval.Segment, fn func([]Item) error) error {
	cur := s.Cursor(seg)
	defer cur.Close()
	for {
		items, err := cur.Next(ScanBatch)
		if err != nil || items == nil {
			return err
		}
		if err := fn(items); err != nil {
			return err
		}
	}
}

// moveRange is the range move every engine supports, and MergeFrom's
// cross-engine form: copy seg's items from src into dst one Scan batch at
// a time, then drop the range at src. Copy-before-drop — an error or crash
// leaves every item in at least one of the two stores — and neither
// store's lock is held while the other is touched.
func moveRange(src, dst Store, seg interval.Segment) error {
	if err := Scan(src, seg, func(items []Item) error {
		for _, it := range items {
			if err := dst.Put(it.Point, it.Key, it.Value); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return src.DeleteRange(seg)
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
