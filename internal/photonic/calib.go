package photonic

import (
	"errors"
	"fmt"
	"math"
)

// This file implements the calibration system of Appendix A: deriving the
// transfer functions that encode digital numbers into light intensities on
// modulators (f_MOD, fitted as a polynomial over a voltage sweep) and decode
// detected intensities back into digital readouts (f_PD, a linear map between
// measured intensity extremes and the ADC code range).

// Polynomial is a fitted polynomial f(v) = c0 + c1 v + c2 v^2 + ...
type Polynomial []float64

// Eval evaluates the polynomial at v using Horner's method.
func (p Polynomial) Eval(v float64) float64 {
	var y float64
	for i := len(p) - 1; i >= 0; i-- {
		y = y*v + p[i]
	}
	return y
}

// FitPolynomial least-squares fits a degree-d polynomial to the sample pairs
// (xs[i], ys[i]) by solving the normal equations with Gaussian elimination.
func FitPolynomial(xs, ys []float64, degree int) (Polynomial, error) {
	if len(xs) != len(ys) {
		return nil, errors.New("photonic: FitPolynomial needs equal-length samples")
	}
	n := degree + 1
	if len(xs) < n {
		return nil, fmt.Errorf("photonic: need at least %d samples for degree %d", n, degree)
	}
	// Normal equations A c = b with A[j][k] = sum x^(j+k), b[j] = sum y x^j.
	a := make([][]float64, n)
	b := make([]float64, n)
	for j := range a {
		a[j] = make([]float64, n)
	}
	for i := range xs {
		pow := make([]float64, 2*n-1)
		pow[0] = 1
		for k := 1; k < len(pow); k++ {
			pow[k] = pow[k-1] * xs[i]
		}
		for j := 0; j < n; j++ {
			b[j] += ys[i] * pow[j]
			for k := 0; k < n; k++ {
				a[j][k] += pow[j+k]
			}
		}
	}
	c, err := solveLinear(a, b)
	if err != nil {
		return nil, err
	}
	return Polynomial(c), nil
}

// solveLinear solves a dense linear system by Gaussian elimination with
// partial pivoting. The inputs are modified in place.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-14 {
			return nil, errors.New("photonic: singular normal equations")
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for k := col; k < n; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for k := r + 1; k < n; k++ {
			s -= a[r][k] * x[k]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// ModulatorCalibration is the fitted encode map f_MOD of Appendix A: "By
// feeding a series of input voltages V0 sweeping from the minimum to the
// maximum FPGA DAC output voltage into the optical modulator and measuring
// the modulator output light intensity I0, we fit a polynomial function."
type ModulatorCalibration struct {
	// Fit maps drive voltage → normalized transmitted intensity.
	Fit Polynomial
	// Lo, Hi is the calibrated (monotonic) voltage range.
	Lo, Hi float64
	// IMin, IMax are the measured intensity extremes over the range.
	IMin, IMax float64
}

// CalibrateModulator sweeps the modulator across its encoding range with the
// given carrier intensity, samples points, and fits a degree-5 polynomial.
func CalibrateModulator(m *MZModulator, carrier float64, samples int) (*ModulatorCalibration, error) {
	if samples < 8 {
		samples = 8
	}
	lo, hi := m.EncodingRange()
	xs := make([]float64, samples)
	ys := make([]float64, samples)
	for i := 0; i < samples; i++ {
		v := lo + (hi-lo)*float64(i)/float64(samples-1)
		xs[i] = v
		ys[i] = m.Modulate(carrier, v)
	}
	fit, err := FitPolynomial(xs, ys, 5)
	if err != nil {
		return nil, err
	}
	return &ModulatorCalibration{
		Fit: fit, Lo: lo, Hi: hi,
		IMin: ys[0], IMax: ys[samples-1],
	}, nil
}

// VoltageFor inverts the fitted transfer function: given a target normalized
// intensity fraction u in [0, 1] (u=1 means IMax), it returns the drive
// voltage that produces it. Inversion is by bisection, valid because the
// encoding zone is monotonic.
func (c *ModulatorCalibration) VoltageFor(u float64) float64 {
	if u <= 0 {
		return c.Lo
	}
	if u >= 1 {
		return c.Hi
	}
	target := c.IMin + u*(c.IMax-c.IMin)
	lo, hi := c.Lo, c.Hi
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if c.Fit.Eval(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
