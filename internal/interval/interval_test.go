package interval

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 0.25, 0.5, 0.75, 0.999999, 1.0 / 3.0, 0.1}
	for _, f := range cases {
		p := FromFloat(f)
		if got := p.Float64(); math.Abs(got-f) > 1e-9 {
			t.Errorf("FromFloat(%v).Float64() = %v", f, got)
		}
	}
}

func TestFromFloatWraps(t *testing.T) {
	if FromFloat(1.25) != FromFloat(0.25) {
		t.Errorf("FromFloat should wrap mod 1")
	}
	if FromFloat(-0.25) != FromFloat(0.75) {
		t.Errorf("FromFloat should wrap negative values: got %v want %v",
			FromFloat(-0.25), FromFloat(0.75))
	}
}

func TestHalfMaps(t *testing.T) {
	y := FromFloat(0.6)
	if got, want := y.Half().Float64(), 0.3; math.Abs(got-want) > 1e-9 {
		t.Errorf("Half(0.6) = %v, want %v", got, want)
	}
	if got, want := y.HalfPlus().Float64(), 0.8; math.Abs(got-want) > 1e-9 {
		t.Errorf("HalfPlus(0.6) = %v, want %v", got, want)
	}
}

// TestBackInvertsMaps checks b(ℓ(y)) = b(r(y)) = y: the backward edge
// undoes either forward edge (the in-degree-1 property of Gc, §2.1). On the
// 64-bit grid the halving maps drop the least significant bit, so the
// round trip is exact up to one ulp.
func TestBackInvertsMaps(t *testing.T) {
	f := func(v uint64) bool {
		y := Point(v)
		return LinDist(y.Half().Back(), y) <= 1 && LinDist(y.HalfPlus().Back(), y) <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// And the round trip in the other direction is fully exact.
	g := func(v uint64) bool {
		y := Point(v)
		return y.Back().Half() == y&^(1<<63) && y.Back().HalfPlus() == y|1<<63
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// TestDistanceHalving verifies Observation 2.3: applying the same move to
// two points exactly halves their linear distance (up to the 1-ulp floor of
// integer shifting).
func TestDistanceHalving(t *testing.T) {
	f := func(a, b uint64, bit bool) bool {
		y, z := Point(a), Point(b)
		d := LinDist(y, z)
		var bt byte
		if bit {
			bt = 1
		}
		dd := LinDist(Step(y, bt), Step(z, bt))
		return dd == d/2 || dd == (d+1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWalkPrefixApproach verifies Claim 2.4: a walk determined by the first
// t bits of σ(y) lands within 2^-t of y, independent of the start z.
func TestWalkPrefixApproach(t *testing.T) {
	f := func(a, b uint64, tRaw uint8) bool {
		y, z := Point(a), Point(b)
		tt := uint(tRaw % 65)
		w := WalkPrefix(y, z, tt)
		if tt >= 64 {
			return w == y
		}
		return LinDist(y, w)>>(64-tt) == 0 // < 2^(64-t) in fixed point
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWalkPrefixIsComposedSteps checks that WalkPrefix(y, z, t) equals the
// explicit composition map_{b1}(map_{b2}(...map_{bt}(z)...)) where b1..bt
// are the most significant bits of y — i.e. the closed form matches the
// paper's recursive definition of w.
func TestWalkPrefixIsComposedSteps(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		y := Point(rng.Uint64())
		z := Point(rng.Uint64())
		tt := uint(rng.IntN(64))
		p := z
		for i := int(tt) - 1; i >= 0; i-- {
			p = Step(p, y.Bit(uint(i)))
		}
		if w := WalkPrefix(y, z, tt); w != p {
			t.Fatalf("WalkPrefix(%v,%v,%d) = %v, composed steps give %v", y, z, tt, w, p)
		}
	}
}

func TestBitExtraction(t *testing.T) {
	y := FromFloat(0.8125) // 0.1101 binary
	want := []byte{1, 1, 0, 1, 0}
	for i, w := range want {
		if got := y.Bit(uint(i)); got != w {
			t.Errorf("Bit(%d) of 0.8125 = %d, want %d", i, got, w)
		}
	}
}

func TestSegmentContains(t *testing.T) {
	// Exact dyadic endpoints: [0.875, 0.125) wrapping through 0.
	s := Segment{FromFloat(0.875), uint64(FromFloat(0.25))}
	for _, c := range []struct {
		p  float64
		in bool
	}{{0.9375, true}, {0.0625, true}, {0.875, true}, {0.125, false}, {0.5, false}, {0.75, false}} {
		if got := s.Contains(FromFloat(c.p)); got != c.in {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.in)
		}
	}
	if !FullCircle.Contains(FromFloat(0.123)) {
		t.Error("FullCircle should contain everything")
	}
}

func TestSegmentImagesHalveLength(t *testing.T) {
	s := Segment{FromFloat(0.3), uint64(FromFloat(0.4))}
	ceil := s.Len/2 + s.Len%2
	if s.Half().Len != ceil || s.HalfPlus().Len != ceil {
		t.Error("images should have half the length (rounded up to the grid)")
	}
	// Every point of s maps into the images.
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 500; i++ {
		p := s.Start + Point(rng.Uint64N(s.Len))
		if !s.Half().Contains(p.Half()) {
			t.Fatalf("ℓ(%v) not in ℓ(s)", p)
		}
		if !s.HalfPlus().Contains(p.HalfPlus()) {
			t.Fatalf("r(%v) not in r(s)", p)
		}
	}
}

func TestBackImageCoversPreimages(t *testing.T) {
	s := Segment{FromFloat(0.3), uint64(FromFloat(0.1))}
	bi := s.BackImage()
	if bi.Len != 2*s.Len {
		t.Errorf("BackImage length = %d, want %d", bi.Len, 2*s.Len)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 500; i++ {
		p := s.Start + Point(rng.Uint64N(s.Len))
		// Both preimages of p (2p and the point mapping to p via r, also 2p
		// shifted) reduce to b(p) = 2p mod 1, which must be in BackImage.
		if !bi.Contains(p.Back()) {
			t.Fatalf("b(%v)=%v not in BackImage %v", p, p.Back(), bi)
		}
	}
}

func TestSegmentOverlaps(t *testing.T) {
	a := Segment{FromFloat(0.1), uint64(FromFloat(0.2))} // [0.1,0.3)
	b := Segment{FromFloat(0.25), uint64(FromFloat(0.2))}
	c := Segment{FromFloat(0.5), uint64(FromFloat(0.2))}
	w := Segment{FromFloat(0.9), uint64(FromFloat(0.25))} // wraps to 0.15
	if !a.Overlaps(b) || b.Overlaps(c) == false && !b.Overlaps(b) {
		t.Error("basic overlap failed")
	}
	if a.Overlaps(c) {
		t.Error("disjoint segments reported overlapping")
	}
	if !w.Overlaps(a) {
		t.Error("wrapping overlap missed")
	}
	if !FullCircle.Overlaps(c) || !c.Overlaps(FullCircle) {
		t.Error("full circle overlaps everything")
	}
}

func TestRingDistances(t *testing.T) {
	a, b := FromFloat(0.125), FromFloat(0.875) // exact dyadic values
	if d := RingDist(a, b); d != uint64(FromFloat(0.25)) {
		t.Errorf("RingDist(0.125,0.875) = %v, want 0.25", Point(d))
	}
	if d := LinDist(a, b); d != uint64(FromFloat(0.75)) {
		t.Errorf("LinDist(0.125,0.875) = %v, want 0.75", Point(d))
	}
	if d := CWDist(b, a); d != uint64(FromFloat(0.25)) {
		t.Errorf("CWDist(0.875,0.125) = %v, want 0.25", Point(d))
	}
}

func TestDeltaMapPowerOfTwoMatchesBinary(t *testing.T) {
	f := func(v uint64) bool {
		y := Point(v)
		return DeltaMap(y, 2, 0) == y.Half() && DeltaMap(y, 2, 1) == y.HalfPlus()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDeltaBackInverts checks the ∆-ary in-edge property: b(f_i(y)) = y up
// to rounding, and the leading digit of f_i(y) is i.
func TestDeltaBackInverts(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, delta := range []uint64{2, 3, 4, 5, 8, 16, 100} {
		for trial := 0; trial < 300; trial++ {
			y := Point(rng.Uint64())
			i := rng.Uint64N(delta)
			img := DeltaMap(y, delta, i)
			if got := DeltaDigit(img, delta); got != i {
				t.Fatalf("∆=%d digit(f_%d(%v)) = %d", delta, i, y, got)
			}
			back := DeltaBack(img, delta)
			if LinDist(back, y) > 2*delta {
				t.Fatalf("∆=%d b(f_%d(y)) off by %d ulps", delta, i, LinDist(back, y))
			}
		}
	}
}

// TestDeltaDistanceDivision verifies the generalized Observation 2.3:
// d(f_i(y), f_i(z)) = d(y,z)/∆ up to rounding.
func TestDeltaDistanceDivision(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for _, delta := range []uint64{2, 3, 7, 16} {
		for trial := 0; trial < 300; trial++ {
			y, z := Point(rng.Uint64()), Point(rng.Uint64())
			i := rng.Uint64N(delta)
			d := LinDist(y, z)
			dd := LinDist(DeltaMap(y, delta, i), DeltaMap(z, delta, i))
			if dd > d/delta+1 || dd+1 < d/delta {
				t.Fatalf("∆=%d: distance %d -> %d, want ~%d", delta, d, dd, d/delta)
			}
		}
	}
}

// TestDeltaWalkPrefixApproach is the ∆-ary Claim 2.4: the walk lands within
// ∆^-t of y (plus t ulps of rounding for non-power-of-two ∆).
func TestDeltaWalkPrefixApproach(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, delta := range []uint64{2, 3, 8, 10} {
		for trial := 0; trial < 200; trial++ {
			y, z := Point(rng.Uint64()), Point(rng.Uint64())
			tt := uint(1 + rng.IntN(8))
			w := DeltaWalkPrefix(y, z, delta, tt)
			bound := uint64(math.Pow(float64(delta), -float64(tt)) * math.Pow(2, 64))
			slack := uint64(tt) * delta * 2
			if LinDist(y, w) > bound+slack {
				t.Fatalf("∆=%d t=%d: dist %d > bound %d", delta, tt, LinDist(y, w), bound)
			}
		}
	}
}

// TestDeltaWalkPrefixBinaryIdentity: at ∆=2 the digit walk is the bit
// splice, for every depth a lookup can plan — the identity that lets the
// live node (∆=2) share route.FastPlan with the ∆-ary simulator — and it
// stays off the heap there.
func TestDeltaWalkPrefixBinaryIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 10000; trial++ {
		y, z := Point(rng.Uint64()), Point(rng.Uint64())
		for tt := uint(0); tt <= 66; tt++ {
			if got, want := DeltaWalkPrefix(y, z, 2, tt), WalkPrefix(y, z, tt); got != want {
				t.Fatalf("t=%d: DeltaWalkPrefix(%#x, %#x, 2) = %#x, WalkPrefix = %#x",
					tt, uint64(y), uint64(z), uint64(got), uint64(want))
			}
		}
	}
	var sink Point
	if a := testing.AllocsPerRun(100, func() { sink += DeltaWalkPrefix(1<<63|12345, 99, 3, 66) }); a != 0 {
		t.Errorf("DeltaWalkPrefix allocates %.0f times at t=66", a)
	}
	_ = sink
}

func TestLog2Inv(t *testing.T) {
	if got := Log2Inv(uint64(FromFloat(0.25))); math.Abs(got-2) > 1e-9 {
		t.Errorf("Log2Inv(0.25) = %v, want 2", got)
	}
	if got := Log2Inv(uint64(FromFloat(1.0 / 1024))); math.Abs(got-10) > 1e-9 {
		t.Errorf("Log2Inv(1/1024) = %v, want 10", got)
	}
}

func TestSegmentMidAndSize(t *testing.T) {
	s := Segment{FromFloat(0.9), uint64(FromFloat(0.2))}
	if m := s.Mid().Float64(); math.Abs(m-0.0) > 1e-9 && math.Abs(m-1.0) > 1e-9 {
		t.Errorf("Mid of wrapping [0.9,0.1) = %v, want 0.0", m)
	}
	if sz := s.Size(); math.Abs(sz-0.2) > 1e-9 {
		t.Errorf("Size = %v, want 0.2", sz)
	}
	if sz := FullCircle.Size(); sz != 1 {
		t.Errorf("FullCircle.Size = %v", sz)
	}
}
