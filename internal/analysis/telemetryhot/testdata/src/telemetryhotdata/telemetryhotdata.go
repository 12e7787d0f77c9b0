// Package telemetryhotdata is the telemetryhot exemplar: hot-marked
// record functions that allocate, lock, or touch maps/channels, next to
// the sanctioned atomic forms, plus record entry points missing the
// marker.
package telemetryhotdata

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter models the telemetry counter: the contract binds its Add/Inc
// by name.
type Counter struct {
	v  atomic.Int64
	mu sync.Mutex
	by map[string]int64
}

// Add is the sanctioned shape: a guard load and an atomic add.
//
//condisc:hot
func (c *Counter) Add(n int64) {
	c.v.Add(n)
}

// Inc may call another hot function of the same package.
//
//condisc:hot
func (c *Counter) Inc() { c.Add(1) }

// Gauge models the telemetry gauge with a marker-less entry point.
type Gauge struct{ v atomic.Int64 }

// Set is a record entry point without the marker: the contract must not
// be shed by deleting the comment.
func (g *Gauge) Set(v int64) { // want `Gauge\.Set is a telemetry record entry point and must carry the //condisc:hot marker`
	g.v.Store(v)
}

// Add carries the marker but locks: any non-atomic call is flagged.
//
//condisc:hot
func (g *Gauge) Add(n int64) {
	var mu sync.Mutex
	mu.Lock() // want `Add is //condisc:hot and calls sync\.Lock`
	g.v.Add(n)
	mu.Unlock() // want `Add is //condisc:hot and calls sync\.Unlock`
}

// Histogram models the bucket-indexed histogram.
type Histogram struct {
	buckets [65]atomic.Int64
	sum     atomic.Int64
}

// Observe is the sanctioned shape: bits.Len64 indexing plus atomics.
//
//condisc:hot
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
}

// observeLabeled allocates and formats on the hot path.
//
//condisc:hot
func (c *Counter) observeLabeled(label string, n int64) {
	key := fmt.Sprintf("%s-total", label) // want `observeLabeled is //condisc:hot and calls fmt\.Sprintf`
	c.mu.Lock()                           // want `observeLabeled is //condisc:hot and calls sync\.Lock`
	c.by[key] += n                        // want `observeLabeled is //condisc:hot and may not index a map`
	c.mu.Unlock()                         // want `observeLabeled is //condisc:hot and calls sync\.Unlock`
}

// observeAsync leaks goroutines, channels, and closures into a record.
//
//condisc:hot
func (c *Counter) observeAsync(n int64) {
	ch := make(chan int64, 1) // want `observeAsync is //condisc:hot and may not call make`
	go func() {               // want `observeAsync is //condisc:hot and may not spawn a goroutine` `observeAsync is //condisc:hot and may not build a closure`
		ch <- n
	}()
	c.v.Add(<-ch) // want `observeAsync is //condisc:hot and may not receive from a channel`
}

// observeSlice grows a buffer per record.
//
//condisc:hot
func (c *Counter) observeSlice(buf []int64, n int64) []int64 {
	defer c.v.Add(n)      // want `observeSlice is //condisc:hot and may not defer`
	return append(buf, n) // want `observeSlice is //condisc:hot and may not call append`
}

// observeBoxed converts to an interface, which boxes.
//
//condisc:hot
func (c *Counter) observeBoxed(n int64) any {
	c.v.Add(n)
	return any(n) // want `observeBoxed is //condisc:hot and may not convert to an interface`
}

// observeIndirect calls through a function value.
//
//condisc:hot
func (c *Counter) observeIndirect(record func(int64), n int64) {
	record(n) // want `observeIndirect is //condisc:hot and may not call through a function value`
}

// putHeader is the sanctioned codec shape: fixed-width byte-order stores
// and loads into a caller's buffer.
//
//condisc:hot
func putHeader(b []byte, n uint32) uint32 {
	binary.LittleEndian.PutUint32(b, n)
	return binary.LittleEndian.Uint32(b)
}

// appendHeader can grow the slice, which the store forms cannot.
//
//condisc:hot
func appendHeader(b []byte, n uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, n) // want `appendHeader is //condisc:hot and calls binary\.AppendUint32`
}

// snapshot is unmarked: cold-path code may allocate and lock freely.
func (c *Counter) snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.by))
	for k, v := range c.by {
		out[k] = v
	}
	return out
}

// observeAllowed documents a justified escape hatch.
//
//condisc:hot
func (c *Counter) observeAllowed(n int64) {
	//condisc:allow telemetryhot exemplar of a justified opt-out: the formatted path is behind a never-true debug flag
	_ = fmt.Sprint(n)
	c.v.Add(n)
}
