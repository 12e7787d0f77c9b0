package dhgraph

import (
	"encoding/binary"
	"testing"

	"condisc/internal/interval"
	"condisc/internal/partition"
)

// FuzzIncremental feeds a random interleaving of Insert/Remove, decoded
// from the fuzz input, to the incrementally maintained graph and asserts it
// stays identical to a from-scratch Build of the same ring, with every
// derived list matching its brute-force recount — the differential oracle
// of incremental_test.go driven by coverage-guided inputs instead of a
// fixed PRNG trace.
//
// Input encoding: 9-byte records. Byte 0 selects the operation
// (even = Insert, odd = Remove); bytes 1-8 are a big-endian uint64 that is
// the inserted point, or the removal index modulo the current size. A
// trailing partial record is ignored. Run with
//
//	go test -fuzz=FuzzIncremental ./internal/dhgraph
//
// to explore; the seed corpus under testdata/fuzz covers the rebuild
// threshold (n <= 3), duplicate points, adjacent-point splits, and
// wrap-around removals.
func FuzzIncremental(f *testing.F) {
	// Duplicate insert, then removals down to the rebuild threshold.
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 0, 0, 42,
		0, 0, 0, 0, 0, 0, 0, 0, 42,
		1, 0, 0, 0, 0, 0, 0, 0, 0,
		1, 0, 0, 0, 0, 0, 0, 0, 7,
		1, 0, 0, 0, 0, 0, 0, 0, 1,
	})
	// Tight cluster of adjacent points: stresses preimage padding.
	f.Add([]byte{
		0, 0x80, 0, 0, 0, 0, 0, 0, 0,
		0, 0x80, 0, 0, 0, 0, 0, 0, 1,
		0, 0x80, 0, 0, 0, 0, 0, 0, 2,
		0, 0x80, 0, 0, 0, 0, 0, 0, 3,
		1, 0, 0, 0, 0, 0, 0, 0, 2,
	})
	// Interleaved churn around the wrap point.
	f.Add([]byte{
		0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0, 0, 0, 0, 0, 0, 0, 0, 1,
		1, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0xfe, 0, 0, 0, 0, 0, 0, 0,
		1, 0, 0, 0, 0, 0, 0, 0, 5,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 9*64 {
			data = data[:9*64] // bound trace length; Build per op is O(n·ρ)
		}
		ring := partition.EquallySpaced(8)
		g := Build(ring, 2)
		for len(data) >= 9 {
			op := data[0]
			arg := binary.BigEndian.Uint64(data[1:9])
			data = data[9:]
			if op%2 == 0 {
				g.Insert(interval.Point(arg))
			} else if ring.N() > 2 {
				g.Remove(int(arg % uint64(ring.N())))
			}
			equalGraphs(t, g, Build(ring, 2))
			checkDerived(t, g)
		}
	})
}
