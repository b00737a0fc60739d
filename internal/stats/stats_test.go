package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{5, 5, 5}); got != 0 {
		t.Errorf("StdDev constant = %v, want 0", got)
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestFitGaussianRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = 2.32 + 1.65*rng.NormFloat64()
	}
	g := FitGaussian(xs)
	if math.Abs(g.Mean-2.32) > 0.05 {
		t.Errorf("fitted mean %v, want ≈2.32", g.Mean)
	}
	if math.Abs(g.Sigma-1.65) > 0.05 {
		t.Errorf("fitted sigma %v, want ≈1.65", g.Sigma)
	}
}

func TestHistogramCountsAndDensity(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.2, 0.9, -5, 5}, 0, 1, 10)
	if h.N != 5 {
		t.Fatalf("N = %d, want 5", h.N)
	}
	// -5 clamps into bin 0, +5 into bin 9.
	if h.Counts[0] != 1 {
		t.Errorf("bin 0 count = %d, want 1 (clamped -5)", h.Counts[0])
	}
	if h.Counts[9] != 2 {
		t.Errorf("bin 9 count = %d, want 2 (0.9 + clamped 5)", h.Counts[9])
	}
	// Density must integrate to 1.
	var integral float64
	w := 0.1
	for i := range h.Counts {
		integral += h.Density(i) * w
	}
	if math.Abs(integral-1) > 1e-12 {
		t.Errorf("density integral = %v, want 1", integral)
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(nil, 0, 10, 5)
	if c := h.BinCenter(0); c != 1 {
		t.Errorf("BinCenter(0) = %v, want 1", c)
	}
	if c := h.BinCenter(4); c != 9 {
		t.Errorf("BinCenter(4) = %v, want 9", c)
	}
}

func TestCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	c := NewCDF(xs)
	prev := 0.0
	for x := -1.0; x <= 101; x += 0.5 {
		v := c.At(x)
		if v < prev {
			t.Fatalf("CDF not monotone at %v: %v < %v", x, v, prev)
		}
		prev = v
	}
	if c.At(-1) != 0 || c.At(101) != 1 {
		t.Error("CDF endpoints wrong")
	}
}

func TestCDFPercentile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if m := c.Median(); m != 5 {
		t.Errorf("Median = %v, want 5", m)
	}
	if p := c.Percentile(0); p != 1 {
		t.Errorf("P0 = %v, want 1", p)
	}
	if p := c.Percentile(1); p != 10 {
		t.Errorf("P100 = %v, want 10", p)
	}
	if p := c.Percentile(0.9); p != 9 {
		t.Errorf("P90 = %v, want 9", p)
	}
}

func TestCDFSeriesShape(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3})
	s := c.Series(3)
	if len(s) != 3 {
		t.Fatalf("Series len = %d", len(s))
	}
	if s[2][1] != 1 || s[2][0] != 3 {
		t.Errorf("final series point = %v", s[2])
	}
}

func TestCDFPercentileWithinRange(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		p = math.Abs(math.Mod(p, 1))
		c := NewCDF(raw)
		v := c.Percentile(p)
		return v >= slices.Min(raw) && v <= slices.Max(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestASCIIBar(t *testing.T) {
	if got := ASCIIBar(0.5, 10); got != "#####....." {
		t.Errorf("ASCIIBar = %q", got)
	}
	if got := ASCIIBar(-1, 4); got != "...." {
		t.Errorf("ASCIIBar clamp low = %q", got)
	}
	if got := ASCIIBar(2, 4); got != "####" {
		t.Errorf("ASCIIBar clamp high = %q", got)
	}
}
