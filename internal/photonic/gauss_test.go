package photonic

import (
	"math"
	"slices"
	"testing"
)

// TestZigguratTablesMatchStdlib holds the generated tables to math/rand/v2's
// (normal.go) at both ends and the middle of each: zigset's recurrence runs
// from strip 127 down, so an error anywhere in it shows at strip 1 and 2.
func TestZigguratTablesMatchStdlib(t *testing.T) {
	for _, c := range []struct {
		i    int
		k    uint32
		w, f float32
	}{
		{0, 0x76ad2212, 1.7290405e-09, 1},
		{1, 0x0, 1.2680929e-10, 0.9635997},
		{2, 0x600f1b53, 1.6897518e-10, 0.9362827},
		{64, 0x7eddc78e, 7.1389966e-10, 0.30876362},
		{126, 0x7a722176, 1.5008659e-09, 0.005548995},
		{127, 0x77d664e5, 1.6030948e-09, 0.0026696292},
	} {
		if kn[c.i] != c.k || float32(wn[c.i]) != c.w || float64(float32(wn[c.i])) != wn[c.i] || fn[c.i] != c.f {
			t.Errorf("strip %d: kn %#x wn %v fn %v, stdlib %#x %v %v", c.i, kn[c.i], float32(wn[c.i]), fn[c.i], c.k, c.w, c.f)
		}
	}
}

// TestKeyedNoiseStatisticalGate is the keyed generator's statistical gate,
// on draws taken the way the serve path takes them (addTo over a span):
//
//   - the Kolmogorov–Smirnov distance of 2^20 draws against N(Mean, Sigma)
//     is below the α = 0.01 critical value, for the prototype and the
//     calibrated model;
//   - the share of |z| beyond the ziggurat's base strip (r = 3.4426, where
//     the tail path takes over) is within 4σ of its binomial expectation;
//   - the streams of adjacent keys, and a stream against itself shifted by
//     a few counter positions, correlate within 4/√N of zero.
func TestKeyedNoiseStatisticalGate(t *testing.T) {
	const n = 1 << 20
	draw := func(m *NoiseModel, key uint64) []float64 {
		m.seekAt(key, 0)
		xs := make([]float64, n)
		m.addTo(xs)
		return xs
	}
	for _, tc := range []struct {
		name string
		m    *NoiseModel
	}{
		{"prototype", PrototypeNoise(0x5eed)},
		{"calibrated", CalibratedNoise(0xca1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			xs := draw(m, 3<<32|5)
			zs := make([]float64, n)
			tail := 0
			for i, x := range xs {
				zs[i] = (x - m.Mean) / m.Sigma
				if math.Abs(zs[i]) > zigR {
					tail++
				}
			}
			slices.Sort(zs)
			var d float64
			for i, z := range zs {
				cdf := 0.5 * math.Erfc(-z/math.Sqrt2)
				d = max(d, math.Abs(cdf-float64(i)/n), math.Abs(float64(i+1)/n-cdf))
			}
			if crit := math.Sqrt(-math.Log(0.01/2)/2) / math.Sqrt(n); d >= crit {
				t.Errorf("KS distance %.5f ≥ α=0.01 critical value %.5f", d, crit)
			}
			p := math.Erfc(zigR / math.Sqrt2)
			want, sd := n*p, math.Sqrt(n*p*(1-p))
			if math.Abs(float64(tail)-want) > 4*sd {
				t.Errorf("%d draws beyond |z| %.4f, binomial expectation %.1f ± %.1f", tail, zigR, want, sd)
			}
		})
	}

	m := CalibratedNoise(11)
	bound := 4 / math.Sqrt(n)
	for _, k := range []uint64{0, 1, 7 << 32, 7<<32 | 1, 1 << 40} {
		a, b := draw(m, k), draw(m, k+1)
		if r := correlation(a, b); math.Abs(r) > bound {
			t.Errorf("keys %d and %d: correlation %.5f beyond %.5f", k, k+1, r, bound)
		}
		for _, lag := range []int{1, 2, 64} {
			if r := correlation(a[:n-lag], a[lag:]); math.Abs(r) > bound {
				t.Errorf("key %d at lag %d: correlation %.5f beyond %.5f", k, lag, r, bound)
			}
		}
	}
}

// correlation is the Pearson sample correlation of two equal-length series.
func correlation(a, b []float64) float64 {
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(len(a))
	mb /= float64(len(b))
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	return sab / math.Sqrt(saa*sbb)
}

// TestNoiseCursorIsPositionAddressed pins the cursor contract: a draw is a
// pure function of (seed, key, position) — the same key sought twice gives
// the same draws however the first pass was split between Sample and addTo,
// draws already taken from another key change nothing, and a different seed
// or key gives a different stream.
func TestNoiseCursorIsPositionAddressed(t *testing.T) {
	const key = 9<<32 | 4
	ref := PrototypeNoise(3)
	ref.seekAt(key, 0)
	want := make([]float64, 300)
	for i := range want {
		want[i] = ref.Sample()
	}

	m := PrototypeNoise(3)
	m.addTo(make([]float64, 17)) // draws from key 0 first
	m.seekAt(key, 0)
	got := make([]float64, len(want))
	got[0] = m.Sample()
	m.addTo(got[1:100])
	for i := 100; i < len(got); i++ {
		got[i] = m.Sample()
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("draw %d: %v after a reseek, %v from a fresh model", i, got[i], want[i])
		}
	}

	for name, other := range map[string]*NoiseModel{"seed": PrototypeNoise(4), "key": PrototypeNoise(3)} {
		k := uint64(key)
		if name == "key" {
			k++
		}
		other.seekAt(k, 0)
		same := 0
		for i := range want {
			if other.Sample() == want[i] {
				same++
			}
		}
		if same > 2 {
			t.Errorf("another %s repeats %d of %d draws", name, same, len(want))
		}
	}
}

// normSlowUnsqueezed is normSlow as it stood before the wedge test's squeeze:
// math.Exp on every wedge candidate. The squeezed normSlow is held to it bit
// for bit.
func normSlowUnsqueezed(u, s uint64) float64 {
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
		if fn[i]+float32(unit())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		u = next()
	}
}

// slowDraws calls f with the first word and counter of every draw of key's
// stream (under seed) at positions [ctr, ctr+n) that misses the fast path.
func slowDraws(seed, key, ctr uint64, n int, f func(u, s uint64)) {
	s := streamBase(mix64(seed), key) + ctr*weyl
	for ; n > 0; n-- {
		s += weyl
		u := wyfold(s, wyMul)
		j := int32(u)
		m := j >> 31
		if uint32((j^m)-m) >= kn[u>>32&0x7f] {
			f(u, s)
		}
	}
}

// TestNormSlowMatchesUnsqueezed holds the squeezed wedge test to math.Exp's
// decision on every one of 10⁷ slow-path draws, taken from the streams of
// 64 keys as the noise passes take them.
func TestNormSlowMatchesUnsqueezed(t *testing.T) {
	const want = 10_000_000
	got := 0
	for key := uint64(0); got < want; key++ {
		slowDraws(0x5eed, key<<32|key, 0, 6_000_000, func(u, s uint64) {
			if a, b := normSlow(u, s), normSlowUnsqueezed(u, s); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("key %d, counter %#x: squeezed %v, math.Exp %v", key, s, a, b)
			}
			got++
		})
	}
}

// TestSqueezeBoundsExp checks each wedge strip's squeeze against math.Exp
// itself: lo ≤ math.Exp(−x²/2) ≤ hi, at both ends of the strip's candidate
// range and at 1 000 points between them, as normSlow evaluates all three.
func TestSqueezeBoundsExp(t *testing.T) {
	for i := 1; i < 128; i++ {
		j0, j1 := float64(kn[i]), float64(1<<31)
		b := &sq[i]
		for k := 0; k <= 1001; k++ {
			j := math.Round(j0 + (j1-j0)*float64(k)/1001)
			x := j * wn[i]
			tt := x * x
			e := math.Exp(-.5 * x * x)
			if lo, hi := b.loA-b.loB*tt, b.hiA-b.hiB*tt; !(lo <= e && e <= hi) {
				t.Fatalf("strip %d, |j| %v: exp %v outside squeeze [%v, %v]", i, j, e, lo, hi)
			}
		}
	}
}

// FuzzNormSlowMatchesUnsqueezed runs the squeezed normSlow against the
// unsqueezed one on the slow-path draws of 4 096 positions of a fuzzed
// (key, counter).
func FuzzNormSlowMatchesUnsqueezed(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(3<<32|5), uint64(1<<40))
	f.Add(^uint64(0), ^uint64(0)-100)
	f.Fuzz(func(t *testing.T, key, ctr uint64) {
		slowDraws(0x5eed, key, ctr, 4096, func(u, s uint64) {
			if a, b := normSlow(u, s), normSlowUnsqueezed(u, s); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("counter %#x: squeezed %v, math.Exp %v", s, a, b)
			}
		})
	})
}
