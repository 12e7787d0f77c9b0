// Package telemetry is the runtime instrumentation layer: sharded atomic
// counters, gauges, and fixed-bucket lock-free histograms, collected in
// registries that render Prometheus text and JSON snapshots, plus a
// bounded structured event ring for churn/handoff lifecycle records.
//
// It is designed for two non-negotiable properties:
//
//   - Hot-path records never allocate, lock, or touch a map: Counter.Add,
//     Gauge.Set, and Histogram.Observe are a handful of atomic writes on
//     pre-resolved pointers. The hot functions are marked //condisc:hot
//     and the telemetryhot analyzer machine-checks that no allocation,
//     locking, map access, or non-atomic call creeps into them — that is
//     what lets the PR 7 wait-free read path carry instrumentation
//     without perturbation.
//
//   - No package under the churntest determinism contract (condisc,
//     partition, handoff, dhgraph) ever reads a clock: every timestamp is
//     taken inside this package, from an injectable clock (SetClock), so
//     the detpath analyzer stays clean and the differential digests stay
//     byte-identical with telemetry enabled.
//
// Metric values are pure observers: nothing in the system reads them
// back into a decision, so enabling or disabling telemetry cannot change
// any externally visible state (the churntest digest arm enforces this).
package telemetry

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// enabled is the global kill switch: when false, every record call is a
// single atomic load and a branch. The on/off benchmark arm measures
// exactly this delta.
var enabled atomic.Bool

func init() {
	enabled.Store(true)
	f := time.Now
	clockPtr.Store(&f)
}

// SetEnabled turns all recording on or off (default on). Values already
// recorded are retained and still readable.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// clockPtr holds the clock every timestamp in this package is drawn
// from. Injection exists so the determinism-contract packages can emit
// timestamped events without ever referencing time.Now themselves, and
// so tests can freeze time.
var clockPtr atomic.Pointer[func() time.Time]

// SetClock injects the clock used for event timestamps, stamped gauges,
// and stopwatches. Passing nil restores the wall clock.
func SetClock(f func() time.Time) {
	if f == nil {
		f = time.Now
	}
	clockPtr.Store(&f)
}

func now() time.Time { return (*clockPtr.Load())() }

// maxCounterShards caps a Counter's fan-out, and so its size at 4 KiB,
// however many processors the machine has.
const maxCounterShards = 64

// counterShards is the fan-out of every Counter the registries hand out,
// fixed once at package init: the power of two at or above 4 x GOMAXPROCS,
// capped at maxCounterShards. Each shard sits on its own cache line so
// concurrent writers on different shards never false-share; at most
// GOMAXPROCS goroutines write at once, so a wider counter buys nothing
// and a p2p node registers 34 of them — at 8 shards (2 cores) that is
// 17 KB of an empty node's heap, at 64 it is 140 KB.
var counterShards = shardCount(runtime.GOMAXPROCS(0))

func shardCount(procs int) int {
	n := 1
	for n < 4*procs && n < maxCounterShards {
		n <<= 1
	}
	return n
}

type counterShard struct {
	v atomic.Int64
	_ [56]byte // pad to one cache line
}

// A Counter is a monotonically increasing, sharded atomic counter.
// Concurrent Adds land on (probabilistically) distinct shards, chosen
// from the caller's stack address — goroutine stacks live in distinct
// allocations, so concurrent goroutines disperse across shards without
// any per-goroutine state or allocation.
type Counter struct {
	name   string
	shards []counterShard // power-of-two length, so Add indexes with a mask
}

// newCounter allocates a counter with the given power-of-two fan-out.
// Registry.Counter passes counterShards; tests pass other widths.
func newCounter(name string, shards int) *Counter {
	return &Counter{name: name, shards: make([]counterShard, shards)}
}

// Add increments the counter by n.
//
//condisc:hot
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	var probe byte
	// Stacks sit at multiples of their power-of-two size, so the address
	// bits just above the 512 B frame granule repeat from goroutine to
	// goroutine; a Fibonacci multiply moves the distinguishing bits to the
	// top, where the (at most 6-bit) shard index is taken.
	h := uint64(uintptr(unsafe.Pointer(&probe))>>9) * 0x9E3779B97F4A7C15
	c.shards[(h>>58)&uint64(len(c.shards)-1)].v.Add(n)
}

// Inc increments the counter by one.
//
//condisc:hot
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. It is a read-side snapshot: concurrent Adds may
// or may not be included, but nothing is ever double-counted.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// A Gauge is an instantaneous value (published epoch, in-flight
// sessions). Set/Add are single atomic writes.
type Gauge struct {
	name  string
	v     atomic.Int64
	stamp atomic.Int64 // clock nanos of the last SetStamped, 0 = never
}

// Set stores the gauge value.
//
//condisc:hot
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n (n may be negative).
//
//condisc:hot
func (g *Gauge) Add(n int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(n)
}

// SetStamped stores the value and records the clock, so Age can report
// how stale the value is. It reads the injected clock and therefore is
// not a hot-path call — it is meant for infrequent publishes (the epoch
// gauge is stamped once per churn wave).
func (g *Gauge) SetStamped(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
	g.stamp.Store(now().UnixNano())
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Age returns the time since the last SetStamped, or 0 if the gauge was
// never stamped.
func (g *Gauge) Age() time.Duration {
	s := g.stamp.Load()
	if s == 0 {
		return 0
	}
	return now().Sub(time.Unix(0, s))
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// histBuckets is the fixed bucket count of a Histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. upper bound 2^i - 1
// (bucket 0 holds exactly v == 0). 65 buckets cover the whole int64
// range, so no observation is ever out of range and no resize can exist.
const histBuckets = 65

// A Histogram is a fixed-bucket, power-of-two histogram with an exact
// atomic maximum. Observe is bucket-indexed by bits.Len64 — no search,
// no float math, no allocation — and every field is an independent
// atomic, so concurrent observers never lock. The exact max (not just
// the max bucket bound) is kept because the experiments report worst-
// case hop counts against the paper's bounds.
type Histogram struct {
	name    string
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value (negatives clamp to 0).
//
//condisc:hot
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value (0 if none).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the average observed value (0 if none).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// A Stopwatch measures a duration using the injected clock, so callers
// under the determinism contract never touch time.Now themselves.
type Stopwatch struct {
	t0 time.Time
}

// StartTimer starts a stopwatch at the injected clock's current time.
func StartTimer() Stopwatch { return Stopwatch{t0: now()} }

// Observe records the elapsed nanoseconds into h.
func (s Stopwatch) Observe(h *Histogram) { h.Observe(s.Nanos()) }

// Nanos returns the elapsed nanoseconds.
func (s Stopwatch) Nanos() int64 { return now().Sub(s.t0).Nanoseconds() }
