// Package interval provides exact fixed-point arithmetic on the unit
// interval I = [0,1), the continuous space underlying every construction in
// the continuous-discrete approach (Naor & Wieder, SPAA 2003).
//
// A Point is a uint64 v interpreted as the real number v/2^64. With this
// representation the Distance Halving maps become exact bit operations:
//
//	ℓ(y) = y/2       -> v >> 1
//	r(y) = y/2 + 1/2 -> (v >> 1) | 1<<63
//	b(y) = 2y mod 1  -> v << 1
//
// The paper (§2.2.3) notes that its routing is "sensitive to small
// perturbations in the numerical value of the parameters" and suggests
// allocating 4·log n bits per variable; we allocate 64 bits and all binary
// walk operations are exact.
package interval

import (
	"fmt"
	"math"
	"math/bits"
)

// Point is a point of the unit interval I = [0,1), represented in fixed
// point: the Point v denotes the real number v / 2^64.
type Point uint64

// FromFloat converts a float64 in [0,1) to the nearest Point.
// Values outside [0,1) are wrapped modulo 1.
func FromFloat(f float64) Point {
	f -= math.Floor(f)
	// 2^64 is not representable as a float product target, so scale by 2^32
	// twice to avoid overflow at f very close to 1.
	hi := uint64(f * (1 << 32))
	rem := f*(1<<32) - float64(hi)
	lo := uint64(rem * (1 << 32))
	return Point(hi<<32 + lo)
}

// Float64 returns the point as a float64 in [0,1). It loses precision below
// 2^-53 but is convenient for display and statistics.
func (p Point) Float64() float64 {
	return float64(p) / (1 << 63) / 2
}

// String formats the point as a decimal fraction.
func (p Point) String() string {
	return fmt.Sprintf("%.9f", p.Float64())
}

// Bit returns the i-th most significant bit (i in [0,64)) of the binary
// expansion 0.b0 b1 b2 ... of the point.
func (p Point) Bit(i uint) byte {
	return byte(uint64(p)>>(63-i)) & 1
}

// Half returns ℓ(p) = p/2, the "left" edge of the continuous Distance
// Halving graph: it inserts a 0 at the most significant position.
func (p Point) Half() Point { return p >> 1 }

// HalfPlus returns r(p) = p/2 + 1/2, the "right" edge: it inserts a 1 at the
// most significant position.
func (p Point) HalfPlus() Point { return p>>1 | 1<<63 }

// Back returns b(p) = 2p mod 1, the backward edge of the continuous graph:
// the unique point whose ℓ- or r-image is p.
func (p Point) Back() Point { return p << 1 }

// Add returns p + q mod 1 (ring addition).
func (p Point) Add(q Point) Point { return p + q }

// Sub returns p - q mod 1 (ring subtraction).
func (p Point) Sub(q Point) Point { return p - q }

// LinDist returns |p - q|, the linear (non-wrapping) distance used by the
// paper's d(x,y), as a uint64 in fixed-point scale.
func LinDist(p, q Point) uint64 {
	if p > q {
		return uint64(p - q)
	}
	return uint64(q - p)
}

// RingDist returns the circular distance min(|p-q|, 1-|p-q|).
func RingDist(p, q Point) uint64 {
	d := uint64(p - q)
	if d > -d { // d > 2^63
		return -d
	}
	return d
}

// CWDist returns the clockwise (increasing) distance from p to q on the
// ring, i.e. the length of the arc [p, q).
func CWDist(p, q Point) uint64 { return uint64(q - p) }

// WalkPrefix returns w(σ(y)_t, z): the point reached by walking from z
// according to the first t bits of the binary representation of y, applied
// from the least significant (bit t) to the most significant (bit 1), so
// that the result shares its first t bits with y (Claim 2.4 of the paper:
// d(y, w(σ(y)_t, z)) ≤ 2^-t).
//
// In fixed point this is exact: the result is the top t bits of y followed
// by the top 64-t bits of z.
func WalkPrefix(y, z Point, t uint) Point {
	if t == 0 {
		return z
	}
	if t >= 64 {
		return y
	}
	mask := ^Point(0) << (64 - t)
	return (y & mask) | (z >> t)
}

// Step applies one continuous-graph move to p: bit 0 applies ℓ, bit 1
// applies r. A sequence of Steps with bits τ_1, τ_2, ... visits points whose
// top bits are the reversed prefix of τ; two walkers applying the same bits
// halve their distance each step (Observation 2.3).
func Step(p Point, bit byte) Point {
	if bit == 0 {
		return p.Half()
	}
	return p.HalfPlus()
}

// Segment is the half-open arc [Start, Start+Len) of the ring I. Len == 0
// denotes the full circle (the single-server partition).
type Segment struct {
	Start Point
	Len   uint64
}

// FullCircle is the segment covering all of I.
var FullCircle = Segment{0, 0}

// Contains reports whether p lies in the segment.
func (s Segment) Contains(p Point) bool {
	if s.Len == 0 {
		return true
	}
	return uint64(p-s.Start) < s.Len
}

// End returns the exclusive upper endpoint Start+Len (mod 1).
func (s Segment) End() Point { return s.Start + Point(s.Len) }

// Mid returns the midpoint of the segment.
func (s Segment) Mid() Point { return s.Start + Point(s.Len/2) }

// Size returns the length of the segment as a real number in [0,1].
func (s Segment) Size() float64 {
	if s.Len == 0 {
		return 1
	}
	return (float64(s.Len) / (1 << 63)) / 2
}

// Overlaps reports whether two segments intersect (as arcs of the ring).
func (s Segment) Overlaps(o Segment) bool {
	if s.Len == 0 || o.Len == 0 {
		return true
	}
	return uint64(o.Start-s.Start) < s.Len || uint64(s.Start-o.Start) < o.Len
}

// Half returns ℓ(s) = the image of the segment under the left map: an arc
// of half the length starting at ℓ(Start). (Figure 1 of the paper: an
// interval is mapped into two intervals, each half its size.)
//
// The length is rounded UP to the fixed-point grid: the image of a
// nonempty real interval is nonempty, but a floor division would round a
// 1-ulp segment's image to Len 0 — which by convention denotes the full
// circle, silently aliasing the smallest possible segment to the largest.
// This is the same degenerate-segment bug fixed by ceiling division in
// continuous.DeltaImages; the audit of the remaining Segment consumers
// (overlap.DegreeOf among them) moved the fix here, to the shared
// primitive. Over-approximating by at most one ulp is harmless:
// the paper's bounds tolerate polynomially small perturbations (§4).
func (s Segment) Half() Segment {
	if s.Len == 0 {
		return Segment{0, 1 << 63}
	}
	return Segment{s.Start.Half(), s.Len/2 + s.Len%2}
}

// HalfPlus returns r(s), the image under the right map (rounded up to the
// grid like Half).
func (s Segment) HalfPlus() Segment {
	if s.Len == 0 {
		return Segment{1 << 63, 1 << 63}
	}
	return Segment{s.Start.HalfPlus(), s.Len/2 + s.Len%2}
}

// BackImage returns b(s) = the preimage arc of s under ℓ and r jointly: the
// contiguous arc of length 2·Len whose halving images cover s. All points
// reaching s via a backward edge originate in it.
func (s Segment) BackImage() Segment {
	if s.Len == 0 || s.Len >= 1<<63 {
		return FullCircle
	}
	return Segment{s.Start.Back(), s.Len * 2}
}

// String formats the segment as [start, end).
func (s Segment) String() string {
	return fmt.Sprintf("[%s, %s)", s.Start, s.End())
}

// DeltaMap computes f_i(y) = y/∆ + i/∆, the generalized De Bruijn edge map
// of alphabet size ∆ (Definition 4 / §2.3). For ∆ a power of two the result
// is exact; otherwise it is correct to one ulp of the 64-bit fixed-point
// grid, which the paper's analysis tolerates (§4: "all bounds remain correct
// even if points are perturbed by polynomially small values").
func DeltaMap(y Point, delta uint64, i uint64) Point {
	if delta == 0 {
		panic("interval: DeltaMap with delta == 0")
	}
	if bits.OnesCount64(delta) == 1 {
		k := uint(bits.TrailingZeros64(delta))
		return y>>k + Point(i<<(64-k))
	}
	q, _ := bits.Div64(i%delta, 0, delta) // floor(i * 2^64 / delta)
	return Point(uint64(y)/delta) + Point(q)
}

// DeltaBack returns b(y) = ∆·y mod 1, the backward edge of the ∆-ary graph.
func DeltaBack(y Point, delta uint64) Point {
	return Point(uint64(y) * delta)
}

// DeltaDigit returns the leading base-∆ digit of y, i.e. floor(y·∆): the
// index i such that y lies in the image of f_i.
func DeltaDigit(y Point, delta uint64) uint64 {
	hi, _ := bits.Mul64(uint64(y), delta)
	return hi
}

// DeltaWalkPrefix is the ∆-ary analogue of WalkPrefix: it walks from z
// according to the first t base-∆ digits of y, deepest digit first, so that
// d(y, result) ≤ ∆^-t (Claim 2.4 generalized in §2.3).
func DeltaWalkPrefix(y, z Point, delta uint64, t uint) Point {
	if t == 0 {
		return z
	}
	// Extract the first t digits of y, most significant first. 66 digits
	// is the longest walk any lookup plans (route.FastPlan's bound at
	// ∆=2), so the common case stays on the stack.
	var buf [66]uint64
	digits := buf[:]
	if t > uint(len(buf)) {
		digits = make([]uint64, t)
	}
	v := y
	for i := uint(0); i < t; i++ {
		digits[i] = DeltaDigit(v, delta)
		v = DeltaBack(v, delta)
	}
	// Apply them deepest-first so digit[0] ends up most significant.
	p := z
	for i := int(t) - 1; i >= 0; i-- {
		p = DeltaMap(p, delta, digits[i])
	}
	return p
}

// DeltaStep applies one ∆-ary continuous-graph move with digit d.
func DeltaStep(p Point, delta uint64, d uint64) Point {
	return DeltaMap(p, delta, d)
}

// Log2Inv returns log2(1/x) for a length x given in fixed-point scale,
// i.e. 64 - log2(v). It is the quantity servers use to estimate log n from
// the distance to their ring predecessor (§6.2, Lemma 6.2).
func Log2Inv(length uint64) float64 {
	if length == 0 {
		return 0
	}
	return 64 - math.Log2(float64(length))
}
