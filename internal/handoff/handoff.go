// Package handoff is the streaming, two-phase, crash-safe item-transfer
// subsystem behind churn: the §2.1 Join and Leave both move a segment's
// items between two servers, and this package turns that move from "one
// in-memory map inside one RPC" into a resumable session.
//
// A transfer is a session driven by a prepare → stream → commit protocol:
//
//	prepare  the receiver opens the session at the sender; the sender
//	         fences writes to the moving range (reads keep being served —
//	         the sender owns the range until commit) and registers a
//	         deadline after which an abandoned session self-aborts.
//	stream   the sender walks the range with a store.Cursor and writes
//	         CRC-framed chunks; the receiver appends each chunk durably
//	         to a staging store as it arrives. A broken connection is
//	         resumed from the last staged position — items travel in ring
//	         order, so the resume point is a single (point, key).
//	commit   the receiver first promotes the staged items into its live
//	         store (durably), then asks the sender to commit: the sender
//	         deletes the range (one durable range tombstone on a WAL
//	         store) and flips ownership in the same critical section.
//
// The ordering is what makes a crash at ANY point leave exactly one owner
// and never zero copies of an item: the future owner makes the items
// durable and live BEFORE the old owner deletes them, and ownership flips
// only at the sender's commit step. The window the old single-RPC join
// had — the owner drained the range before the joiner had persisted it,
// so a joiner dying mid-RPC stranded the range — cannot be expressed in
// this protocol.
//
// What the caller does, and what it may not do. The package owns the
// protocol ORDER on both ends; its one caller (internal/p2p) owns the ring
// decisions that order leaves open.
//
//	sender    NewSessions once (it keeps the durable commit record);
//	          Prepare to fence a range; Get/Touch and Stream to serve it;
//	          Commit inside the critical section that flips its pointers,
//	          the range delete after; Abort to settle a receiver's lost
//	          commit or refused stream. It asks "is this committed" of
//	          nothing but Sessions, and deletes no range Commit did not
//	          return ok for.
//	receiver  Begin, then Run over a Wire to the sender, and map the
//	          Outcome onto its own state — Committed: adopt the range and
//	          Finish; Refused: Abort; Unresolved: keep or roll back by its
//	          own policy. After a crash: Recover, then Run the session
//	          again, or, for a session whose commit is known to have
//	          landed, Promote then Finish. It never promotes a live session
//	          itself (Run does, before the commit), never calls Finish
//	          before a commit or Abort after one.
//
// Memory: the sender holds one cursor batch and one frame buffer, which it
// reuses for every frame of a stream (it grows only when a frame does not
// fit); the receiver holds one decoded frame, fresh per frame, since the
// items it hands to apply alias it. Peak transfer memory is
// O(chunk budget) however large the range is (BenchmarkHandoff sweeps
// 1k → 1M items; TestStreamMemoryBounded holds the watermark to 4× the
// chunk budget). Promote keeps the same bound on the way from staging to
// the live store: it is a MergeFrom, which copies one cursor batch
// (batchItems) at a time and reads the next only once that one is in the
// live store (TestPromoteMemoryBounded) — except Mem into Mem, which moves
// chunk pointers and copies nothing.
package handoff

import (
	"sync/atomic"

	"condisc/internal/interval"
	"condisc/internal/store"
)

const (
	// DefaultChunkBytes is the per-frame byte budget of a stream: the
	// sender flushes a frame once its encoded items pass this size.
	DefaultChunkBytes = 256 << 10
	// batchItems bounds one cursor batch (the inner fetch unit; several
	// batches fill one frame when items are small) — the batch every
	// store.Scan walk holds, too.
	batchItems = store.ScanBatch
)

// transferMem is the package-wide accounting of bytes the transfer path
// holds in memory at an instant: cursor batches and the frame buffer on the
// sender, decoded frame bodies on the receiver. It is what BenchmarkHandoff
// gates — an explicit watermark rather than a heap sample, so the
// O(chunk) claim is checked deterministically.
var transferMem gauge

type gauge struct {
	cur  atomic.Int64
	peak atomic.Int64
}

func (g *gauge) add(n int64) {
	c := g.cur.Add(n)
	for {
		p := g.peak.Load()
		if c <= p || g.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

func (g *gauge) release(n int64) { g.cur.Add(-n) }

// ResetMemWatermark zeroes the transfer-memory high-water mark.
func ResetMemWatermark() { transferMem.cur.Store(0); transferMem.peak.Store(0) }

// MemWatermark returns the peak bytes the transfer path has held in
// memory since the last reset.
func MemWatermark() int64 { return transferMem.peak.Load() }

// itemBytes is the accounted in-memory footprint of a batch.
func itemBytes(items []store.Item) int64 {
	var n int64
	for _, it := range items {
		n += 8 + int64(len(it.Key)) + int64(len(it.Value))
	}
	return n
}

// Copy replicates seg's items from src to dst through the same bounded-
// memory cursor path the network stream uses, leaving the source intact.
// It is the first half of the epoch-publish churn protocol
// (copy → publish → delete): between the copy and the source-side
// DeleteRange the items exist in both stores, so a reader resolving
// against either the pre- or post-publish epoch finds every item at the
// owner its epoch names. It returns the number of items copied.
func Copy(src, dst store.Store, seg interval.Segment) (int, error) {
	copied := 0
	err := store.Scan(src, seg, func(items []store.Item) error {
		n := itemBytes(items)
		transferMem.add(n)
		defer transferMem.release(n)
		for _, it := range items {
			if err := dst.Put(it.Point, it.Key, it.Value); err != nil {
				return err
			}
			copied++
		}
		return nil
	})
	return copied, err
}

// Move transfers seg's items from src to dst through the bounded-memory
// cursor path, then deletes the range at the source — the in-process
// (simulator) form of a handoff session, with the prepare/commit
// bracketing collapsed: copy-before-delete still holds, so an error
// mid-move leaves every item in at least one store. It returns the
// number of items moved.
func Move(src, dst store.Store, seg interval.Segment) (int, error) {
	moved, err := Copy(src, dst, seg)
	if err != nil {
		return moved, err
	}
	return moved, src.DeleteRange(seg)
}
