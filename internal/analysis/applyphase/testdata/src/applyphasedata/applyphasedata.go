// Package applyphasedata is the applyphase exemplar: a miniature
// dhgraph with the admit-only field names, and apply/retire functions
// that violate (and respect) the PR 5 concurrency contract.
package applyphasedata

import "math/rand/v2"

type rec struct {
	out []uint64
}

type ringT struct{}

func (r *ringT) Insert(p uint64) {}
func (r *ringT) RemoveAt(i int)  {}

type graph struct {
	srv      []*rec // indexed by handle
	ring     *ringT
	storeSeq int
	rng      *rand.Rand
}

// JoinAdmit is the serial admit-phase API; writing admit-only state
// here is its job and is not checked.
func (g *graph) JoinAdmit(p uint64) {
	g.storeSeq++
	g.ring.Insert(p)
	g.srv = append(g.srv, &rec{})
}

// badApply violates the contract in every way at once: it runs
// concurrently for lease-disjoint patches yet grows and writes the srv
// table, bumps a counter, mutates the ring, and draws from the shared RNG
// stream.
func (g *graph) badApply(h uint64) {
	g.srv = append(g.srv, &rec{}) // want `badApply writes the dhgraph srv table`
	g.srv[h] = &rec{}             // want `badApply writes the dhgraph srv table`
	clear(g.srv)                  // want `badApply clears the dhgraph srv table`
	g.storeSeq++                  // want `badApply writes the store sequence counter`
	g.ring.RemoveAt(0)            // want `badApply mutates the ring structure`
	_ = g.rng.Uint64()            // want `badApply draws from the shared RNG`
	g.JoinAdmit(h)                // want `badApply calls admit-phase API JoinAdmit`
}

// goodApply performs the sanctioned apply-phase mutation: records
// REACHED through the srv table are patched in place; the table itself
// is untouched.
func (g *graph) goodApply(h uint64, lst []uint64) {
	g.srv[h].out = lst
}

// RemoveRetire is the serial retire phase: dropping the departed
// server's srv-table record is its job — but the ring and the counters
// still belong to admit.
func (g *graph) RemoveRetire(h uint64) {
	g.srv[h] = nil
	g.storeSeq++ // want `RemoveRetire writes the store sequence counter`
}
