package dhgraph

import (
	"math/rand/v2"
	"testing"

	"condisc/internal/partition"
)

func benchRing(n int) *partition.Ring {
	rng := rand.New(rand.NewPCG(uint64(n), 7))
	return partition.Grow(partition.New(), n, partition.MultipleChooser(2), rng)
}

func BenchmarkBuildN4096Delta2(b *testing.B) {
	ring := benchRing(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(ring, 2)
	}
}

func BenchmarkBuildN4096Delta16(b *testing.B) {
	ring := benchRing(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(ring, 16)
	}
}

func BenchmarkIsNeighborH(b *testing.B) {
	ring := benchRing(4096)
	g := Build(ring, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.IsNeighborH(ring.HandleAt(i%4096), ring.HandleAt((i*31)%4096))
	}
}
