package photonic

import (
	"math"
	"math/bits"
)

// The keyed Gaussian behind NoiseModel. Draw n of key k is a pure function of
// (seed, k, n): a stream base hashed once from the seed and the key, a Weyl
// counter base + (n+1)·γ, one wyrand 64×64→128 multiply-fold of the counter
// into 64 random bits, and the ziggurat of Marsaglia & Tsang ("The Ziggurat
// Method for Generating Random Variables", 2000) over those bits — the same
// 128-strip tables, acceptance test, wedge test and Marsaglia tail as
// math/rand/v2's NormFloat64. The fast path, taken by ≈ 97.2 % of draws
// (Σ kn[i]/2³¹ / 128), is one multiply, one table compare and one table
// multiply, written into the loops of NoiseModel.addAt and readoutAt; the
// ≈ 2.8 % rest (normSlow) draws its further words from a second stream keyed
// by the same counter, so every draw consumes exactly one counter position
// and any position can be drawn without the ones before it. normSlow's wedge
// test is squeezed between two straight lines in x² per strip (sq), and
// reaches math.Exp only for a candidate inside the band between them — 0.7 %
// of wedge candidates — with every decision the one math.Exp would make.

const (
	// weyl is wyrand's counter increment (odd, so the counter has full
	// period); wyMul is its fold constant.
	weyl  = 0xa0761d6478bd642f
	wyMul = 0xe7037ed1a0b428db
	// slowSalt and slowMul key normSlow's second stream apart from the
	// first: a different starting point and a different fold constant.
	slowSalt = 0x8ebc6af09c88c6e3
	slowMul  = 0x589965cc75374cc3

	// zigR is the start of the ziggurat's tail, zigV the area of each strip.
	zigR = 3.442619855899
	zigV = 9.91256303526217e-3
)

// The ziggurat tables: kn[i] is strip i's fast-accept bound on |j|, wn[i]
// maps j to x, fn[i] is the density at strip i's edge. They are generated as
// Marsaglia & Tsang's zigset does, which reproduces math/rand/v2's tables
// entry for entry (TestZigguratTablesMatchStdlib); wn is stored widened from
// its float32 value so the fast path multiplies without a conversion.
var (
	kn [128]uint32
	wn [128]float64
	fn [128]float32
)

func init() {
	const m1 = 1 << 31
	dn, tn := zigR, zigR
	q := zigV / math.Exp(-.5*dn*dn)
	kn[0] = uint32(dn / q * m1)
	wn[0] = float64(float32(q / m1))
	wn[127] = float64(float32(dn / m1))
	fn[0] = 1
	fn[127] = float32(math.Exp(-.5 * dn * dn))
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-.5*dn*dn)))
		kn[i+1] = uint32(dn / tn * m1)
		tn = dn
		fn[i] = float32(math.Exp(-.5 * dn * dn))
		wn[i] = float64(float32(dn / m1))
	}
	for i := 1; i < 128; i++ {
		// A wedge candidate of strip i has kn[i] ≤ |j| ≤ 2³¹, and x and
		// t = x·x grow with |j| however they round.
		x0, x1 := float64(kn[i])*wn[i], (1<<31)*wn[i]
		t0, t1 := x0*x0, x1*x1
		e0, e1 := math.Exp(-.5*t0), math.Exp(-.5*t1)
		tm := (t0 + t1) / 2
		em := math.Exp(-.5 * tm)
		sq[i].loA, sq[i].loB = em*(1+tm/2)-squeezeShade, em/2
		sq[i].hiB = (e0 - e1) / (t1 - t0)
		sq[i].hiA = e0 + sq[i].hiB*t0 + squeezeShade
	}
}

// squeezeShade is how far each squeeze bound is moved off exp(−t/2):
// 2¹² ulps of 1, against math.Exp's error of under one ulp and the few ulps
// of rounding in the bound's own tables and evaluation, so each
// shaded bound lies on its side of whatever math.Exp returns. Against
// float32's spacing of the wedge's y (2⁻²⁴ near 1, 2⁻³³ near the last
// strip's density) it widens the band by next to nothing.
const squeezeShade = 0x1p-40

// sq holds each wedge strip's squeeze on exp(−t/2) over its candidates' t:
// lo(t) = loA − loB·t is the tangent at the middle of the strip's t range,
// below the convex exp(−t/2) everywhere, and hi(t) = hiA − hiB·t the chord
// through its ends, above it across the range; both shaded by squeezeShade.
var sq [128]struct{ loA, loB, hiA, hiB float64 }

// mix64 is SplitMix64's finalizer, a bijection with full avalanche.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// streamBase is the Weyl counter origin of key's stream under the seed
// whose mix64 is seeded.
func streamBase(seeded, key uint64) uint64 {
	return mix64(seeded + key*weyl)
}

// wyfold folds a counter value into 64 random bits.
func wyfold(s, m uint64) uint64 {
	hi, lo := bits.Mul64(s, s^m)
	return hi ^ lo
}

// normSlow finishes a ziggurat draw whose first word u (drawn at counter s)
// missed the fast path: the base strip's tail, a wedge test, or a fresh
// attempt, exactly as math/rand/v2's NormFloat64 continues — with its further
// words from the second stream keyed by s.
func normSlow(u, s uint64) float64 {
	t := s ^ slowSalt
	next := func() uint64 {
		t += weyl
		return wyfold(t, slowMul)
	}
	unit := func() float64 { return float64(next()<<11>>11) / (1 << 53) }
	for {
		j := int32(u)
		i := u >> 32 & 0x7f
		x := float64(j) * wn[i]
		m := j >> 31
		if uint32((j^m)-m) < kn[i] {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(unit()) * (1.0 / zigR)
				y := -math.Log(unit())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigR + x
			}
			return -zigR - x
		}
		// The wedge: accept when y < exp(−x²/2) as float32. The squeeze
		// settles it without math.Exp outside the band between its bounds:
		// float32 rounding is monotone and lo ≤ math.Exp ≤ hi, so y below
		// float32(lo) is below float32(math.Exp) and y at or above
		// float32(hi) is not.
		y := fn[i] + float32(unit())*(fn[i-1]-fn[i])
		t, b := x*x, &sq[i]
		if y < float32(b.loA-b.loB*t) || y < float32(b.hiA-b.hiB*t) && y < float32(math.Exp(-.5*x*x)) {
			return x
		}
		u = next()
	}
}
