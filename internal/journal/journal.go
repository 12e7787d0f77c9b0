// Package journal is the bounded, wait-free structured flight recorder:
// a fixed-capacity ring of fixed-width records capturing the events
// that mutate routing state — simulator churn events, epoch Publish,
// handoff prepare/stream/commit/abort, stale-route repair, end/succ
// flips. Each record is stamped with the emitting node's ring version
// and epoch, so journals from different nodes merge into one causally
// ordered cluster timeline (ring-version order, deterministic
// tie-break) without any clock synchronisation — no record ever carries
// a wall-clock timestamp, which also keeps the emit path clean under
// the detpath determinism contract.
//
// Record is a hot-path call under the telemetryhot discipline
// (machine-checked): slot reservation is one atomic add, the slot write
// is seven atomic stores guarded by a seqlock sequence number, and
// nothing on the path allocates, locks, or dispatches dynamically.
// The reader (Records — a cold path) validates the sequence number
// around each slot copy and discards torn or overwritten slots, so a
// dump taken mid-churn is always a consistent sample.
//
// The journal is a pure observer: nothing reads it back into a
// decision, so attaching one cannot change externally visible state
// (the churntest digest arm runs the same trace with the journal on and
// off and demands byte-identical dumps).
package journal

import (
	"fmt"
	"sync/atomic"
)

// Kind enumerates the event classes the flight recorder captures.
type Kind uint8

const (
	// KindUnknown is the zero value; no emit site uses it.
	KindUnknown Kind = iota
	// KindChurn: one simulator churn event mutated the ring and patched the
	// graph; its items move and its epoch publishes next. A = server id,
	// B = segment start, C = 1 for a join, 0 for a leave.
	KindChurn
	// KindEpochPublish: partition.Ring.Publish made a new immutable
	// snapshot visible. Epoch = the new epoch, A = ring size n.
	KindEpochPublish
	// KindHandPrepare: a handoff session was prepared (sender side).
	// A = session id, B = segment start, C = segment length.
	KindHandPrepare
	// KindHandStream: one pass of a session's chunk stream ended at the
	// sender (one per connection the receiver opened, so a resumed
	// stream records one per pass). A = session id, B = items streamed,
	// C = bytes the connection accepted.
	KindHandStream
	// KindHandCommit: a handoff session committed; the segment changed
	// owner. A = session id, C = 1 join / 0 leave.
	KindHandCommit
	// KindHandAbort: a handoff session aborted; ownership is unchanged.
	// A = session id.
	KindHandAbort
	// KindStaleRepair: routing detected a message addressed past a moved
	// boundary and re-resolved it (PR 7 bounded stale-owner retry).
	// A = the routed key's point, B = hop count when detected.
	KindStaleRepair
	// KindEndSuccFlip: the node's (end, succ) pair flipped — the single
	// sanctioned p2p ownership mutation. RingVer = the new version,
	// A = new segment end, B = new successor id.
	KindEndSuccFlip
	// KindCrashAbsorb: the failure detector declared the successor dead
	// and the node absorbed its segment without a handoff session (the
	// items are gone until repair re-materializes them from replicas).
	// RingVer = the new version, A = the dead successor's id, B = the
	// new segment end, C = the number of opState misses that tripped
	// the detector.
	KindCrashAbsorb

	kindCount // one past the last valid kind
)

var kindNames = [kindCount]string{
	KindUnknown:      "unknown",
	KindChurn:        "churn",
	KindEpochPublish: "epoch_publish",
	KindHandPrepare:  "hand_prepare",
	KindHandStream:   "hand_stream",
	KindHandCommit:   "hand_commit",
	KindHandAbort:    "hand_abort",
	KindStaleRepair:  "stale_repair",
	KindEndSuccFlip:  "end_succ_flip",
	KindCrashAbsorb:  "crash_absorb",
}

// String returns the snake_case name used in dumps and timelines.
func (k Kind) String() string {
	if k < kindCount {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText renders the kind name (JSON dumps carry names, not
// numbers, so /journalz stays greppable).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText accepts any name String produces.
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i := Kind(0); i < kindCount; i++ {
		if kindNames[i] == s {
			*k = i
			return nil
		}
	}
	return fmt.Errorf("journal: unknown kind %q", s)
}

// Record is one decoded flight-recorder entry. Seq is the global emit
// index at the recording node (monotone per node, gaps only where the
// ring overwrote). RingVer and Epoch are the causal stamps; A, B, C are
// kind-specific operands (see the Kind constants).
type Record struct {
	Seq     uint64 `json:"seq"`
	Kind    Kind   `json:"kind"`
	RingVer uint64 `json:"ring_ver"`
	Epoch   uint64 `json:"epoch"`
	A       uint64 `json:"a"`
	B       uint64 `json:"b"`
	C       uint64 `json:"c"`
}

// slot is one seqlock-guarded ring cell. seq cycles through
// 2*i+1 (writer for global index i is mid-write) and 2*i+2 (the record
// for index i is complete); readers accept a slot only if they observe
// the same even value before and after the copy.
type slot struct {
	seq     atomic.Uint64
	kind    atomic.Uint64
	ringVer atomic.Uint64
	epoch   atomic.Uint64
	a       atomic.Uint64
	b       atomic.Uint64
	c       atomic.Uint64
}

// Journal is the fixed-capacity wait-free ring. The zero Journal is not
// usable; construct with New. A nil *Journal is a valid no-op target —
// every method checks — so emit sites hold a possibly-nil pointer and
// call unconditionally.
type Journal struct {
	slots []slot
	mask  uint64
	next  atomic.Uint64
}

// DefaultCapacity is the ring size New rounds up to when given n <= 0.
const DefaultCapacity = 4096

// New returns a journal holding the last `capacity` records (rounded up
// to a power of two, minimum 16).
func New(capacity int) *Journal {
	n := uint64(16)
	if capacity > 0 {
		for n < uint64(capacity) {
			n <<= 1
		}
	} else {
		n = DefaultCapacity
	}
	return &Journal{slots: make([]slot, n), mask: n - 1}
}

// enabled is the global kill switch, mirroring telemetry's: when false,
// Record is a single atomic load and a branch. The churntest
// digest-invariance arm toggles attachment, not this switch; the switch
// exists so an operator can silence a live node's recorder without
// rewiring it.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns all recording on or off (default on). Records
// already in the ring are retained and still readable.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// Record appends one entry to the ring. Safe for any number of
// concurrent callers; never blocks, never allocates. On a nil journal
// or with recording disabled it is a load and a branch.
//
//condisc:hot
func (j *Journal) Record(kind Kind, ringVer, epoch, a, b, c uint64) {
	if j == nil || !enabled.Load() {
		return
	}
	i := j.next.Add(1) - 1
	s := &j.slots[i&j.mask]
	s.seq.Store(2*i + 1)
	s.kind.Store(uint64(kind))
	s.ringVer.Store(ringVer)
	s.epoch.Store(epoch)
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.seq.Store(2*i + 2)
}

// Len reports how many records are currently resident (at most the
// ring capacity).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	n := j.next.Load()
	if c := uint64(len(j.slots)); n > c {
		n = c
	}
	return int(n)
}

// Dropped reports how many records the ring has overwritten since
// construction (total emitted minus capacity, floored at zero).
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	n := j.next.Load()
	if c := uint64(len(j.slots)); n > c {
		return n - c
	}
	return 0
}

// Records returns a consistent sample of the resident records, oldest
// first. Slots a concurrent writer is mid-way through (or has lapped
// during the read) are skipped, so every returned record is intact; a
// dump taken mid-churn may have gaps but never torn entries. Cold path.
func (j *Journal) Records() []Record {
	if j == nil {
		return nil
	}
	next := j.next.Load()
	start := uint64(0)
	if c := uint64(len(j.slots)); next > c {
		start = next - c
	}
	out := make([]Record, 0, next-start)
	for i := start; i < next; i++ {
		s := &j.slots[i&j.mask]
		before := s.seq.Load()
		r := Record{
			Seq:     i,
			Kind:    Kind(s.kind.Load()),
			RingVer: s.ringVer.Load(),
			Epoch:   s.epoch.Load(),
			A:       s.a.Load(),
			B:       s.b.Load(),
			C:       s.c.Load(),
		}
		if before != 2*i+2 || s.seq.Load() != before {
			continue // torn, overwritten, or still being written
		}
		out = append(out, r)
	}
	return out
}
