package photonic

import (
	"math"
	"testing"
)

func TestFitPolynomialExact(t *testing.T) {
	// y = 2 + 3x - x^2 must be recovered exactly from samples.
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 + 3*x - x*x
	}
	p, err := FitPolynomial(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-9 {
			t.Errorf("coef %d = %v, want %v", i, p[i], want[i])
		}
	}
	if y := p.Eval(1.5); math.Abs(y-(2+4.5-2.25)) > 1e-9 {
		t.Errorf("Eval(1.5) = %v", y)
	}
}

func TestFitPolynomialErrors(t *testing.T) {
	if _, err := FitPolynomial([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FitPolynomial([]float64{1, 2}, []float64{1, 2}, 3); err == nil {
		t.Error("underdetermined fit accepted")
	}
	// Degenerate x values make the normal equations singular.
	if _, err := FitPolynomial([]float64{1, 1, 1}, []float64{1, 2, 3}, 2); err == nil {
		t.Error("singular system accepted")
	}
}

func TestModulatorCalibrationInversion(t *testing.T) {
	m := NewMZModulator(0.8)
	NewBiasController().Lock(m, 1)
	cal, err := CalibrateModulator(m, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Property: encoding u then measuring the real device recovers u within
	// a fraction of an 8-bit LSB.
	for u := 0.0; u <= 1.0001; u += 1.0 / 64 {
		v := cal.VoltageFor(u)
		got := (m.Modulate(1, v) - cal.IMin) / (cal.IMax - cal.IMin)
		if math.Abs(got-u) > 1.0/512 {
			t.Fatalf("u=%v: recovered %v (err %v > half LSB)", u, got, math.Abs(got-u))
		}
	}
}

func TestVoltageForClamps(t *testing.T) {
	m := NewMZModulator(0)
	NewBiasController().Lock(m, 1)
	cal, err := CalibrateModulator(m, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if v := cal.VoltageFor(-0.5); v != cal.Lo {
		t.Errorf("VoltageFor(-0.5) = %v, want Lo", v)
	}
	if v := cal.VoltageFor(1.5); v != cal.Hi {
		t.Errorf("VoltageFor(1.5) = %v, want Hi", v)
	}
}
