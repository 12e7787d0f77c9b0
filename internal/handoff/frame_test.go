package handoff

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand/v2"
	"strings"
	"testing"

	"condisc/internal/interval"
	"condisc/internal/store"
)

// goldenItems covers both paths of sumItems' batching — pieces gathered
// into the batch, and a key and a value too large for it, folded on their
// own — and an empty key and value.
func goldenItems() []store.Item {
	return []store.Item{
		{Point: 1, Key: "a", Value: []byte("v")},
		{Point: 1 << 63, Key: "", Value: nil},
		{Point: 0xdeadbeefcafe, Key: strings.Repeat("long-key/", 8), Value: bytes.Repeat([]byte{0x5a}, 3000)},
		{Point: 42, Key: strings.Repeat("k", sumBatchLen+1), Value: []byte("after a long key")},
		{Point: ^interval.Point(0), Key: "k", Value: []byte{}},
	}
}

// TestSumItemsGolden pins the stream checksum: a change to it breaks
// streams between builds (the EOF check fails and the session aborts),
// so it must be deliberate. The constant is also recomputed from the
// documented byte sequence, CRC-32C in the high word, CRC-32 in the low.
func TestSumItemsGolden(t *testing.T) {
	const golden uint64 = 0x441eed36568b372e
	items := goldenItems()
	if got := sumItems(0, items); got != golden {
		t.Fatalf("sumItems(0, golden items) = %#x, want %#x", got, golden)
	}
	var seq []byte
	for _, it := range items {
		seq = binary.LittleEndian.AppendUint64(seq, uint64(it.Point))
		seq = binary.LittleEndian.AppendUint64(seq, uint64(len(it.Key)))
		seq = append(seq, it.Key...)
		seq = binary.LittleEndian.AppendUint64(seq, uint64(len(it.Value)))
		seq = append(seq, it.Value...)
	}
	ref := uint64(crc32.Checksum(seq, crc32.MakeTable(crc32.Castagnoli)))<<32 | uint64(crc32.ChecksumIEEE(seq))
	if ref != golden {
		t.Fatalf("CRCs of the documented byte sequence = %#x, want %#x", ref, golden)
	}
}

// TestSumItemsChains: folding a list part by part, at any split, equals
// folding it whole — what lets each end fold one frame at a time.
func TestSumItemsChains(t *testing.T) {
	rng := rand.New(rand.NewPCG(38, 38))
	for trial := 0; trial < 200; trial++ {
		items := make([]store.Item, rng.IntN(40))
		for i := range items {
			key := make([]byte, rng.IntN(sumBatchLen+100))
			val := make([]byte, rng.IntN(2*sumBatchLen))
			for j := range key {
				key[j] = byte(rng.Uint32())
			}
			for j := range val {
				val[j] = byte(rng.Uint32())
			}
			items[i] = store.Item{Point: interval.Point(rng.Uint64()), Key: string(key), Value: val}
		}
		whole := sumItems(0, items)
		var parts uint64
		for rest := items; len(rest) > 0; {
			cut := rng.IntN(len(rest) + 1)
			parts = sumItems(parts, rest[:cut])
			rest = rest[cut:]
		}
		if parts != whole {
			t.Fatalf("trial %d: folded in parts %#x, whole %#x", trial, parts, whole)
		}
	}
}

// TestStreamHotPathAllocs: folding the checksum and encoding a frame
// into a warmed buffer allocate nothing — sumItems reads keys through a
// view, not a []byte(key) copy, and the sender reuses its frame buffer.
func TestStreamHotPathAllocs(t *testing.T) {
	items := goldenItems()
	for i := 0; i < 16; i++ {
		items = append(items, store.Item{Point: interval.Point(i), Key: strings.Repeat("k", i*8+1), Value: make([]byte, 64)})
	}
	var sum uint64
	if a := testing.AllocsPerRun(100, func() { sum = sumItems(sum, items) }); a != 0 {
		t.Errorf("sumItems: %v allocs per call, want 0", a)
	}
	buf := encodeItems(nil, items)
	if a := testing.AllocsPerRun(100, func() { buf = encodeItems(buf, items) }); a != 0 {
		t.Errorf("encodeItems into a warmed buffer: %v allocs per frame, want 0", a)
	}
}
