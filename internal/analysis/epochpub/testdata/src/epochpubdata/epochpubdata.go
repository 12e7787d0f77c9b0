// Package epochpubdata is the epochpub exemplar: a miniature ring with
// an epoch publish, an immutable snapshot, and a p2p-style node with a
// version-stamped boundary, exercised by functions that violate (and
// respect) the PR 7 epoch-publication contract.
package epochpubdata

type Ring struct{ epoch uint64 }

func (r *Ring) Publish() { r.epoch++ }

type wave struct {
	ring *Ring
}

// runWave is the sanctioned publish point: every apply and retire of
// the wave has finished, so flipping readers to the new epoch is safe.
func (w *wave) runWave() {
	w.ring.Publish()
}

// admitSplit runs on the serial admit path BEFORE the wave's items are
// copied; publishing here would expose a decomposition whose items are
// still on their old owners.
func (w *wave) admitSplit() {
	w.ring.Publish() // want `admitSplit publishes an epoch from a churn phase function`
}

// applyMove runs concurrently for lease-disjoint events; publishing
// from one event would expose the other events half-applied.
func (w *wave) applyMove(r *Ring) {
	r.Publish() // want `applyMove publishes an epoch from a churn phase function`
}

// RemoveRetire runs serially but still before the wave publishes.
func (w *wave) RemoveRetire() {
	w.ring.Publish() // want `RemoveRetire publishes an epoch from a churn phase function`
}

// Snapshot models partition.Snapshot: immutable once published. Only
// package partition may build one; everyone else holds it read-only.
type Snapshot struct {
	view
	epoch uint64
	byH   map[uint64]int
}

// view models partition's embedded query type: the point list a snapshot
// shares with nobody once published.
type view struct{ ol []uint64 }

// mutateSnapshot writes a published snapshot in place — a reader
// holding it would observe torn state with no epoch change.
func mutateSnapshot(s *Snapshot) {
	s.epoch = 7  // want `mutateSnapshot writes field epoch of a Snapshot`
	s.byH[3] = 4 // want `mutateSnapshot writes field byH of a Snapshot`
	s.epoch++    // want `mutateSnapshot writes field epoch of a Snapshot`
}

// mutateEmbedded reaches the snapshot's list through the embedded view,
// promoted or spelled out — the same torn read either way.
func mutateEmbedded(s *Snapshot) {
	s.ol = nil       // want `mutateEmbedded writes field ol of a Snapshot`
	s.view.ol = nil  // want `mutateEmbedded writes field view of a Snapshot`
	s.view.ol[0] = 1 // want `mutateEmbedded writes field view of a Snapshot`
}

// readSnapshot only reads: fine.
func readSnapshot(s *Snapshot) uint64 { return s.epoch }

// Node models p2p.Node: the segment boundary (end, succ) is guarded by
// a version stamp so stale handoff commits fast-fail.
type Node struct {
	end     uint64
	succ    int
	ringVer uint64
}

// setEndSuccLocked is the single sanctioned boundary writer: the
// version bump and the pointer writes are inseparable.
func (n *Node) setEndSuccLocked(end uint64, succ int) {
	n.end = end
	n.succ = succ
	n.ringVer++
}

// stabilize must route boundary moves through setEndSuccLocked; a raw
// write would skip the ringVer bump and let a stale commit land on a
// moved boundary.
func (n *Node) stabilize(end uint64, succ int) {
	n.end = end   // want `stabilize writes Node.end directly`
	n.succ = succ // want `stabilize writes Node.succ directly`
}

// bootstrap demonstrates the escape hatch: before the node serves
// requests no commit can be in flight, so a raw write is safe — and
// the justification is mandatory.
func (n *Node) bootstrap(end uint64) {
	//condisc:allow epochpub no sessions exist before the node serves
	n.end = end
}
