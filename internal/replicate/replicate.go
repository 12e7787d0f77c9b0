// Package replicate defines the k-successor replication policy and the
// self-describing replica payload format shared by the TCP node and the
// simulator.
//
// Placement follows the ring: a key's owner keeps the authoritative full
// copy and pushes one replica payload to each of its k−1 ring successors.
// The successors are exactly the nodes that inherit the owner's segment
// under the paper's §2.1 predecessor/successor absorb order, so after a
// crash the absorber's own replica set already covers the lost range —
// no placement metadata has to survive the crash.
//
// Payloads are self-describing: one tag byte, then tag-specific bytes —
// today always a full copy of the value. Reconstruct never needs the
// policy back, so readers keep working across a rolling policy change.
package replicate

import "fmt"

// Policy selects the replication factor and write semantics.
type Policy struct {
	// K is the total number of copies including the owner's; K <= 1
	// disables replication entirely.
	K int
	// Quorum is the number of acks (the owner's local write counts as
	// one) a Put needs before it is acknowledged. <= 0 means majority:
	// K/2 + 1. Values are clamped to [1, K].
	Quorum int
}

// Enabled reports whether the policy replicates at all.
func (p Policy) Enabled() bool { return p.K > 1 }

// NeedAcks returns the effective write quorum in [1, K].
func (p Policy) NeedAcks() int {
	if !p.Enabled() {
		return 1
	}
	q := p.Quorum
	if q <= 0 {
		q = p.K/2 + 1
	}
	if q > p.K {
		q = p.K
	}
	if q < 1 {
		q = 1
	}
	return q
}

// ReconstructQuorum returns the minimum number of replica holders a
// repair gather must reach before its reconstruction pass can be
// trusted as complete: one (replicas are full copies), zero with
// replication off. A gather that reached fewer holders may simply have
// missed the payloads and must not be treated as authoritative.
func (p Policy) ReconstructQuorum() int {
	if p.Enabled() {
		return 1
	}
	return 0
}

// payloadCopy is the one payload type tag: tag ++ value bytes. Unknown
// tags are skipped by Reconstruct so the format can grow (0x02, the tag of
// the retired RS-shard payloads, stays unassigned).
const payloadCopy = 0x01

// EncodeCopy wraps a full-value replica payload.
func EncodeCopy(val []byte) []byte {
	out := make([]byte, 1+len(val))
	out[0] = payloadCopy
	copy(out[1:], val)
	return out
}

// Payloads builds the k−1 successor payloads for val: one full copy,
// shared by every successor.
func Payloads(p Policy, val []byte) [][]byte {
	n := p.K - 1
	if n < 1 {
		return nil
	}
	out := make([][]byte, n)
	full := EncodeCopy(val)
	for i := range out {
		out[i] = full
	}
	return out
}

// Reconstruct recovers the original value from whatever replica payloads
// could be gathered (order and gaps do not matter): the first full copy
// wins.
func Reconstruct(payloads [][]byte) ([]byte, bool) {
	for _, pl := range payloads {
		if len(pl) >= 1 && pl[0] == payloadCopy {
			return pl[1:], true
		}
	}
	return nil, false
}

// Validate rejects nonsensical policies before a node starts with them.
func (p Policy) Validate() error {
	if p.K < 0 || p.K > 64 {
		return fmt.Errorf("replicate: K=%d out of range [0, 64]", p.K)
	}
	if p.Quorum > p.K && p.K > 1 {
		return fmt.Errorf("replicate: quorum %d exceeds replication factor %d", p.Quorum, p.K)
	}
	return nil
}
