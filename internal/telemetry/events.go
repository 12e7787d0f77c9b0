package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// An Event is one structured lifecycle record: a churn step, a
// handoff prepare/stream/commit, a WAL rotation — the infrequent,
// narratable state changes /statusz shows and dhnode dumps on shutdown.
type Event struct {
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail"`
	Seq    uint64    `json:"seq"`
}

// ringCap bounds the event ring: old events are overwritten, never
// accumulated — emitting is safe at any rate, forever.
const ringCap = 256

// eventRing is a bounded, internally synchronized event buffer. Events
// are cold-path by contract (lifecycle, not per-request), so a mutex is
// the right tool; the hot-path analyzer does not cover Emit.
type eventRing struct {
	mu   sync.Mutex
	buf  [ringCap]Event
	next uint64 // total events ever emitted; buf[(next-1)%ringCap] is newest
}

// Emitf formats and records one event, timestamped from the injected
// clock. Disabled telemetry drops events like it drops metric records.
func (r *Registry) Emitf(kind, format string, args ...any) {
	if !enabled.Load() {
		return
	}
	at := now()
	r.ring.mu.Lock()
	r.ring.buf[r.ring.next%ringCap] = Event{
		At:     at,
		Kind:   kind,
		Detail: fmt.Sprintf(format, args...),
		Seq:    r.ring.next,
	}
	r.ring.next++
	r.ring.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Registry) Events() []Event {
	r.ring.mu.Lock()
	defer r.ring.mu.Unlock()
	n := r.ring.next
	start := uint64(0)
	if n > ringCap {
		start = n - ringCap
	}
	out := make([]Event, 0, n-start)
	for s := start; s < n; s++ {
		out = append(out, r.ring.buf[s%ringCap])
	}
	return out
}

// EventsDropped reports how many events fell off the ring.
func (r *Registry) EventsDropped() uint64 {
	r.ring.mu.Lock()
	defer r.ring.mu.Unlock()
	if r.ring.next <= ringCap {
		return 0
	}
	return r.ring.next - ringCap
}
