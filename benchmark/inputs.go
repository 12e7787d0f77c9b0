package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
)

// Everything a workload feeds the program is derived from the seed here:
// keys, values, entry choices, the churn schedule's join points. The ring
// itself (node points, item hash) is part of the system under test and is
// built from clusterSeed, so hops/op compares across seeds.

// mix is the splitmix64 finalizer over (a, b).
func mix(a, b uint64) uint64 {
	z := a + (b+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// keyName is the i-th key of a seed; fixed width, so handoff bytes are
// items × a constant.
func keyName(seed uint64, i int) string {
	return fmt.Sprintf("k%016x", mix(seed, uint64(i)))
}

// fillValue writes the value of (seed, key, version) into dst. A reader
// regenerates it into a scratch buffer to byte-check what came back, so no
// expected value is ever stored.
func fillValue(dst []byte, seed uint64, key int, version int32) {
	s := mix(mix(seed, uint64(key)), uint64(version)) | 1
	var word [8]byte
	for i := 0; i < len(dst); i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		binary.LittleEndian.PutUint64(word[:], s)
		copy(dst[i:], word[:])
	}
}

// inputs is one run's generated data set.
type inputs struct {
	seed    uint64
	keys    []string
	valSize int
}

func newInputs(seed uint64, nKeys, valSize int) *inputs {
	in := &inputs{seed: seed, keys: make([]string, nKeys), valSize: valSize}
	for i := range in.keys {
		in.keys[i] = keyName(seed, i)
	}
	return in
}

// stream returns the independent random stream `id` of the seed.
func (in *inputs) stream(id uint64) *rand.Rand {
	return rand.New(rand.NewPCG(in.seed, mix(in.seed, id)))
}

// Stream ids. Client c uses streamClient+c.
const (
	streamChurn  = 1
	streamVerify = 2
	streamProbe  = 3
	streamSetup  = 4
	streamClient = 16
)
