// Package epochpubdata is the epochpub exemplar: an immutable snapshot,
// exercised by functions that violate (and respect) the PR 7
// epoch-publication contract.
package epochpubdata

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

// bootstrap demonstrates the escape hatch: a snapshot no reader can hold
// yet may be filled in place — and the justification is mandatory.
func bootstrap() *Snapshot {
	s := &Snapshot{}
	//condisc:allow epochpub not yet published: no reader holds it
	s.epoch = 1
	return s
}
