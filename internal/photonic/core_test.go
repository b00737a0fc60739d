package photonic

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/stats"
)

func idealCore(t *testing.T, lanes int) *Core {
	t.Helper()
	c, err := NewCore(lanes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMultiplyIdealAccuracy(t *testing.T) {
	c := idealCore(t, 1)
	rng := rand.New(rand.NewPCG(1, 1))
	var worst float64
	for i := 0; i < 500; i++ {
		a := fixed.Code(rng.IntN(256))
		b := fixed.Code(rng.IntN(256))
		got := c.Multiply(a, b)
		want := float64(a) * float64(b) / 255
		if err := math.Abs(got - want); err > worst {
			worst = err
		}
	}
	// The only ideal-channel error sources are the extinction floor and
	// the polynomial calibration fit: under 1.5 codes.
	if worst > 1.5 {
		t.Errorf("worst ideal multiplication error = %v codes", worst)
	}
}

func TestMultiplyByZero(t *testing.T) {
	c := idealCore(t, 1)
	for _, a := range []fixed.Code{0, 1, 128, 255} {
		if got := c.Multiply(a, 0); math.Abs(got) > 1.0 {
			t.Errorf("%d × 0 = %v, want ≈0", a, got)
		}
		if got := c.Multiply(0, a); math.Abs(got) > 1.0 {
			t.Errorf("0 × %d = %v, want ≈0", a, got)
		}
	}
}

func TestStepAccumulatesAcrossLanes(t *testing.T) {
	c := idealCore(t, 3)
	a := []fixed.Code{100, 200, 50}
	b := []fixed.Code{100, 30, 250}
	got := c.Step(a, b)
	var want float64
	for i := range a {
		want += float64(a[i]) * float64(b[i]) / 255
	}
	if math.Abs(got-want) > 3 {
		t.Errorf("3-lane step = %v, want %v", got, want)
	}
}

func TestStepPanicsOnBadInput(t *testing.T) {
	c := idealCore(t, 1)
	for _, f := range []func(){
		func() { c.Step([]fixed.Code{1, 2}, []fixed.Code{1}) },
		func() { c.Step([]fixed.Code{1, 2}, []fixed.Code{1, 2}) }, // 2 > lanes
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Step input did not panic")
				}
			}()
			f()
		}()
	}
}

func TestDotSingleWavelengthMatchesDigital(t *testing.T) {
	c := idealCore(t, 1)
	// The paper's worked example (§2.1): a=[0.1,0.7,0.6], b=[1,0.05,0.85]
	// → 0.645 in normalized units.
	a := []fixed.Code{fixed.FromUnit(0.1), fixed.FromUnit(0.7), fixed.FromUnit(0.6)}
	b := []fixed.Code{fixed.FromUnit(1), fixed.FromUnit(0.05), fixed.FromUnit(0.85)}
	got := c.DotSingleWavelength(a, b) / 255 // back to normalized units
	if math.Abs(got-0.645) > 0.01 {
		t.Errorf("paper example dot = %v, want 0.645", got)
	}
}

func TestDotPartialsChunking(t *testing.T) {
	c := idealCore(t, 4)
	a := make([]fixed.Code, 10)
	b := make([]fixed.Code, 10)
	for i := range a {
		a[i], b[i] = fixed.Code(20*i), fixed.Code(255-20*i)
	}
	parts := c.DotPartialsInto(nil, a, b)
	if len(parts) != 3 { // ceil(10/4)
		t.Fatalf("partials = %d, want 3", len(parts))
	}
	var want float64
	for i := range a {
		want += float64(a[i]) * float64(b[i]) / 255
	}
	if got := c.Dot(a, b); math.Abs(got-want) > 10 {
		t.Errorf("Dot = %v, want %v", got, want)
	}
}

func TestPrototypeCoreMACAccuracy(t *testing.T) {
	// Reproduces the Fig 14e micro-benchmark shape: std error of photonic
	// MACs with the calibrated noise model stays around 0.75% of 255.
	c, err := NewPrototypeCore(42)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	errs := make([]float64, 1000)
	for i := range errs {
		// Two-lane MAC; keep the accumulated result within the 0–255
		// range the prototype plots.
		a := []fixed.Code{fixed.Code(rng.IntN(128)), fixed.Code(rng.IntN(128))}
		b := []fixed.Code{fixed.Code(rng.IntN(256)), fixed.Code(rng.IntN(256))}
		got := c.Step(a, b)
		want := (float64(a[0])*float64(b[0]) + float64(a[1])*float64(b[1])) / 255
		errs[i] = (got - want) / 255 * 100 // percent of full scale
	}
	sd := stats.StdDev(errs)
	if sd < 0.3 || sd > 1.5 {
		t.Errorf("MAC error std = %.3f%%, want ≈0.75%%", sd)
	}
}

func TestNoiseModelStatistics(t *testing.T) {
	n := PrototypeNoise(7)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = n.Sample()
	}
	g := stats.FitGaussian(xs)
	if math.Abs(g.Mean-2.32) > 0.1 {
		t.Errorf("noise mean = %v, want 2.32", g.Mean)
	}
	if math.Abs(g.Sigma-1.65) > 0.1 {
		t.Errorf("noise sigma = %v, want 1.65", g.Sigma)
	}
	if (*NoiseModel)(nil).Sample() != 0 {
		t.Error("nil noise must sample 0")
	}
}

func TestCoreStepCounter(t *testing.T) {
	c := idealCore(t, 2)
	c.Dot(make([]fixed.Code, 6), make([]fixed.Code, 6))
	if c.Steps != 3 {
		t.Errorf("Steps = %d, want 3", c.Steps)
	}
}

func TestNewCoreRejectsZeroLanes(t *testing.T) {
	if _, err := NewCore(0, nil); err == nil {
		t.Error("NewCore(0) accepted")
	}
}
