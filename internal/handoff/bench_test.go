package handoff

import (
	"bufio"
	"fmt"
	"io"
	"testing"

	"condisc/internal/interval"
	"condisc/internal/store"
)

// BenchmarkHandoff sweeps a full sender→receiver transfer from 1k to 1M
// items at a fixed chunk budget, reporting the transfer path's peak
// memory as "peakB". The acceptance property (asserted at 100k items by
// TestStreamMemoryBounded) is that peakB stays ≤ 4× the chunk budget while
// the transferred volume grows 1000× — churn transfers are O(chunk), not
// O(range), so a handoff larger than RAM streams through a node without
// capping at it. At 10k items it also sweeps the value size (64 B, 1 KiB,
// 4 KiB); MB/s counts each item's point, key and value, the bytes
// benchmark/'s handoff.stream_mb_s counts.
func BenchmarkHandoff(b *testing.B) {
	for _, sz := range []struct {
		name  string
		items int
		val   int
	}{
		{"items=1k", 1_000, 64},
		{"items=10k", 10_000, 64},
		{"items=10k/val=1KiB", 10_000, 1 << 10},
		{"items=10k/val=4KiB", 10_000, 4 << 10},
		{"items=100k", 100_000, 64},
		{"items=1M", 1_000_000, 64},
	} {
		b.Run(sz.name, func(b *testing.B) {
			val := make([]byte, sz.val)
			src := store.NewMem()
			fill(b, src, sz.items, val)
			b.SetBytes(int64(sz.items) * (8 + 10 + int64(sz.val))) // itemBytes of fill's items
			b.ReportAllocs()
			b.ResetTimer()
			var peak int64
			for i := 0; i < b.N; i++ {
				ResetMemWatermark()
				recv, err := Begin("", Receiver{ID: uint64(i) + 1, Role: RoleJoin, Seg: interval.FullCircle, Sender: "bench"})
				if err != nil {
					b.Fatal(err)
				}
				pr, pw := io.Pipe()
				go func() {
					cur := src.Cursor(interval.FullCircle)
					defer cur.Close()
					_, _, err := Stream(pw, cur, DefaultChunkBytes, nil)
					pw.CloseWithError(err)
				}()
				n, err := ReadStream(bufio.NewReaderSize(pr, 64<<10), recv.apply, nil)
				if err != nil || n != uint64(sz.items) {
					b.Fatalf("transfer: n=%d err=%v", n, err)
				}
				if recv.staging.Len() != sz.items {
					b.Fatalf("staged %d, want %d", recv.staging.Len(), sz.items)
				}
				if MemWatermark() > peak {
					peak = MemWatermark()
				}
				recv.Finish()
			}
			b.ReportMetric(float64(peak), "peakB")
			b.ReportMetric(float64(sz.items)*float64(b.N)/b.Elapsed().Seconds(), "items/s")
		})
	}
}

// BenchmarkMove measures the in-process path the simulator's Join/Leave
// use: a fixed 1024-item range moved out of stores of growing resident
// population — flat in residents, like (*Mem).SplitRange.
func BenchmarkMove(b *testing.B) {
	for _, resident := range []int{10_000, 1_000_000} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			src := store.NewMem()
			fill(b, src, resident, []byte("v"))
			step := ^uint64(0)/uint64(resident) + 1
			seg := interval.Segment{Start: interval.Point(uint64(resident/2) * step), Len: 1024 * step}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst := store.NewMem()
				if _, err := Move(src, dst, seg); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := src.MergeFrom(dst); err != nil { // put them back, untimed
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
