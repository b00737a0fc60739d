package estimate

import (
	"math"
	"testing"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

// A host that runs at three different speeds must report the same scaled
// figures as one that never changes speed, while the raw medians move.
func TestScalingDividesOutHostSpeed(t *testing.T) {
	const trueLatencyUS, trueRate = 100.0, 50000.0
	var lat, rate Series
	for i := 0; i < 80; i++ {
		// The kernel slows by k; the serve path by f = k^Sensitivity.
		k := []float64{0.9, 1.0, 1.3}[i%3]
		ref := k * RefNominalUS
		factor := Factor(ref)
		f := math.Pow(k, Sensitivity)
		lat.Add(trueLatencyUS*f, factor)
		rate.Add(trueRate/f, factor)
	}
	if got := lat.MedianTime(); !near(got, trueLatencyUS, 1e-12) {
		t.Errorf("scaled latency = %v, want %v", got, trueLatencyUS)
	}
	if got := rate.MedianRate(); !near(got, trueRate, 1e-12) {
		t.Errorf("scaled rate = %v, want %v", got, trueRate)
	}
	if raw := lat.MedianRaw(); !near(raw, trueLatencyUS, 1e-12) {
		t.Errorf("raw median %v should sit at the middle host speed", raw)
	}
}

// Slow slices the reference kernel did not see (a stall that hit the load
// but neither bracketing kernel run) must not move the slice median.
func TestSliceMedianIgnoresInjectedSlowSlices(t *testing.T) {
	var s Series
	for i := 0; i < 80; i++ {
		v := 100.0 + 0.01*float64(i%5)
		if i%8 == 0 {
			v *= 3 // ten of eighty slices stalled
		}
		s.Add(v, 1)
	}
	if got := s.MedianTime(); got < 100 || got > 100.05 {
		t.Errorf("median with 12.5%% stalled slices = %v, want ~100", got)
	}
}

func TestFactorIsNominalAtTheNominalKernelTime(t *testing.T) {
	if got := Factor(RefNominalUS); !near(got, 1, 1e-12) {
		t.Errorf("Factor(nominal) = %v, want 1", got)
	}
	if got, want := Factor(1.1*RefNominalUS), math.Pow(1.1, Sensitivity); !near(got, want, 1e-12) {
		t.Errorf("Factor(1.1 nominal) = %v, want %v", got, want)
	}
}

// Quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance driver uses. Expected values computed with CPython 3.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if !near(q1, c.q1, 1e-12) || !near(q2, c.q2, 1e-12) || !near(q3, c.q3, 1e-12) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentileIsAnObservedValue(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := Percentile(xs, 50); got != 100 {
		t.Errorf("p50 = %v, want 100", got)
	}
	if got := Percentile(xs, 99); got != 198 {
		t.Errorf("p99 = %v, want 198", got)
	}
	if got := Percentile(xs[:1], 99); got != 1 {
		t.Errorf("p99 of one sample = %v, want it", got)
	}
}

// The kernel is a fixed computation: same result every run, and a duration
// in the neighbourhood of its nominal (within 4x either way even on a very
// different host, or the constant needs re-deriving).
func TestRefKernelIsFixedWork(t *testing.T) {
	r := NewRef()
	us := r.Run()
	first := r.Sink
	r.Run()
	if r.Sink != first {
		t.Errorf("kernel result changed between runs: %v then %v", first, r.Sink)
	}
	if us < RefNominalUS/4 || us > RefNominalUS*4 {
		t.Errorf("kernel took %v us, nominal is %v", us, RefNominalUS)
	}
}
