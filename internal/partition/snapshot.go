package partition

import "condisc/internal/journal"

// Snapshot is an immutable, epoch-stamped view of the ring. Readers that
// must not block on churn (lookups, gets, puts) resolve covers and
// segments against a Snapshot instead of the live Ring: the snapshot's
// chunks are frozen by copy-on-write (olist.publishCopy), so a reader
// holding one sees exactly the decomposition as of some Publish — never a
// torn mix of pre- and post-wave state.
//
// Snapshots are cheap: a publish copies only the chunk directory (O(m)
// for m ≈ n/chunkTarget chunks) and marks chunks shared; the (point,
// handle) payload is copied lazily, one chunk at a time, only when churn
// actually mutates it.
//
// Its ring-order queries (N, Point, HandleAt, Cover, Segment, …) are the
// embedded view's — the same code the live Ring answers with.
type Snapshot struct {
	view
	epoch uint64
}

// Publish freezes the current ring state into a new Snapshot, stamps it
// with the next epoch, and makes it the value returned by Snapshot().
// It must be called only by the (externally serialized) mutating owner,
// and only at a sanctioned publish point: after a churn wave's item
// copies have landed, so that every owner the snapshot names can serve
// its items. Cost: O(m) chunks, independent of n.
func (r *Ring) Publish() *Snapshot {
	r.epoch++
	s := &Snapshot{view: view{ol: r.ol.publishCopy()}, epoch: r.epoch}
	r.snap.Store(s)
	r.jrn.Record(journal.KindEpochPublish, r.epoch, r.epoch, uint64(s.N()), 0, 0)
	return s
}

// Snapshot returns the latest published snapshot. Before the first
// Publish it freezes the current state at epoch 0 on demand (callers may
// race to build it; one CAS wins). Reading a never-published ring that is
// concurrently mutating is a caller bug — the lazy build exists so that
// quiescent rings (tests, single-threaded experiments) work without a
// Publish ceremony.
func (r *Ring) Snapshot() *Snapshot {
	if s := r.snap.Load(); s != nil {
		return s
	}
	s := &Snapshot{view: view{ol: r.ol.publishCopy()}, epoch: r.epoch}
	r.snap.CompareAndSwap(nil, s)
	return r.snap.Load()
}

// Epoch returns the epoch stamp of the latest publish (0 before the
// first). Like mutation, it is owner-side state: concurrent readers
// compare the epochs of snapshots they hold instead.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Epoch returns the publish stamp this snapshot carries. Two reads that
// observe equal epochs observed the identical decomposition.
func (s *Snapshot) Epoch() uint64 { return s.epoch }
