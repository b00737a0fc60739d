package photonic

import "math/rand/v2"

// Photodetector converts incident light intensity into voltage by Einstein's
// photoelectric effect: output current (and hence, through a transimpedance
// stage, voltage) is proportional to total incident intensity, summed across
// all co-incident wavelengths (§2.1). This wavelength-blind summation is the
// accumulation primitive of the multi-wavelength dot-product core (Fig 2c).
type Photodetector struct {
	// Responsivity is the volts produced per unit normalized intensity.
	Responsivity float64
	// DarkLevel is the output voltage with no incident light.
	DarkLevel float64
}

// NewPhotodetector returns the prototype's detector model (Thorlabs PDA8GS,
// DC–9.5 GHz, §6.1) with unit responsivity.
func NewPhotodetector() *Photodetector {
	return &Photodetector{Responsivity: 1}
}

// Detect returns the output voltage for an incident optical field.
func (pd *Photodetector) Detect(l Light) float64 {
	return pd.DarkLevel + pd.Responsivity*l.Total()
}

// Integrator accumulates photodetector output over multiple samples — the
// "integrating circuit, such as a capacitor attached to the photodetector's
// output port" used by the single-wavelength dot-product technique (§2.1).
type Integrator struct {
	sum float64
	n   int
}

// Add accumulates one detected voltage sample.
func (g *Integrator) Add(v float64) { g.sum += v; g.n++ }

// Sum returns the accumulated voltage.
func (g *Integrator) Sum() float64 { return g.sum }

// Samples returns the number of accumulated samples.
func (g *Integrator) Samples() int { return g.n }

// Reset discharges the integrator.
func (g *Integrator) Reset() { g.sum, g.n = 0, 0 }

// NoiseModel is the calibrated analog noise of §7: shot noise and thermal
// noise jointly modeled as an additive Gaussian in ADC code units. The
// prototype measurement of Fig 18 fits mean 2.32 and σ 1.65 on the 0–255
// scale (0.65% of full range).
type NoiseModel struct {
	// Mean is the DC offset of the noise in code units. Calibration can
	// remove it; the raw prototype measurement retains it.
	Mean float64
	// Sigma is the standard deviation in code units.
	Sigma float64
	rng   *rand.Rand
}

// PrototypeNoise returns the noise model fitted from the testbed (Fig 18),
// seeded deterministically for reproducible experiments.
func PrototypeNoise(seed uint64) *NoiseModel {
	return NewNoiseModel(2.32, 1.65, seed)
}

// CalibratedNoise returns the prototype noise with its DC offset removed, as
// the detector-side calibration of Appendix A does for the inference
// datapath (the measured I_min → r_min mapping absorbs the noise mean).
func CalibratedNoise(seed uint64) *NoiseModel {
	return NewNoiseModel(0, 1.65, seed)
}

// NewNoiseModel returns a Gaussian noise source with the given parameters.
func NewNoiseModel(mean, sigma float64, seed uint64) *NoiseModel {
	return &NoiseModel{Mean: mean, Sigma: sigma, rng: rand.New(rand.NewPCG(seed, 0x11747))}
}

// Sample draws one noise value in code units.
func (n *NoiseModel) Sample() float64 {
	if n == nil {
		return 0
	}
	return n.Mean + n.Sigma*n.rng.NormFloat64()
}

// addTo adds one draw to each reading, in order: Sample a reading at a time,
// without a call per reading around the draw.
//
//lint:hotpath
func (n *NoiseModel) addTo(readings []float64) {
	if n == nil {
		return
	}
	for i := range readings {
		readings[i] += n.Mean + n.Sigma*n.rng.NormFloat64()
	}
}

// Noiseless is a nil-safe zero-noise model for ideal-channel tests.
func Noiseless() *NoiseModel { return nil }
