package photonic

import (
	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

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

// NoiseModel is the calibrated analog noise of §7: shot noise and thermal
// noise jointly modeled as an additive Gaussian in ADC code units. The
// prototype measurement of Fig 18 fits mean 2.32 and σ 1.65 on the 0–255
// scale (0.65% of full range).
//
// The draws are keyed, not sequential: draw n of key k is a pure function of
// (seed, k, n) (gauss.go). The model holds a cursor (key, ctr); seekAt moves
// it to a draw of a key's stream, and every draw is taken at the cursor and
// advances it by one. A caller that never seeks reads one stream from key 0
// on. The datapath keys each (layer burst, row) and names every block's
// position in that stream (Core.PartialsAt), so a row's noise does not depend
// on the order rows are issued in, on how its steps are split between
// goroutines, or on what touched the core in between.
type NoiseModel struct {
	// Mean is the DC offset of the noise in code units. Calibration can
	// remove it; the raw prototype measurement retains it.
	Mean float64
	// Sigma is the standard deviation in code units.
	Sigma float64
	// seeded is mix64 of the seed, the part of every stream origin the
	// key does not change.
	seeded uint64
	// base is the cursor key's stream origin; ctr counts the draws taken
	// from it.
	base, ctr uint64
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

// NewNoiseModel returns a Gaussian noise source with the given parameters,
// its cursor at the head of key 0's stream.
func NewNoiseModel(mean, sigma float64, seed uint64) *NoiseModel {
	seeded := mix64(seed)
	return &NoiseModel{Mean: mean, Sigma: sigma, seeded: seeded, base: streamBase(seeded, 0)}
}

// seekAt moves the cursor to draw ctr of key's stream.
func (n *NoiseModel) seekAt(key, ctr uint64) {
	if n == nil {
		return
	}
	n.base, n.ctr = streamBase(n.seeded, key), ctr
}

// Sample draws one noise value in code units at the cursor.
func (n *NoiseModel) Sample() float64 {
	if n == nil {
		return 0
	}
	var r [1]float64
	n.addTo(r[:])
	return r[0]
}

// addTo adds one draw to each reading, in order, from the cursor on: Sample
// a reading at a time.
func (n *NoiseModel) addTo(readings []float64) {
	if n == nil {
		return
	}
	n.addAt(readings, n.base, n.ctr)
	n.ctr += uint64(len(readings))
}

// addAt adds draws ctr, ctr+1, … of the stream whose origin is base to the
// readings, in order, with the draw's fast path in the loop body and only the
// rare slow path a call. It reads the model and writes only the readings.
func (n *NoiseModel) addAt(readings []float64, base, ctr uint64) {
	mean, sigma := n.Mean, n.Sigma
	s := base + ctr*weyl
	for i := range readings {
		s += weyl
		// The ziggurat's fast path (gauss.go); normSlow finishes the rest.
		u := wyfold(s, wyMul)
		j := int32(u)
		k := u >> 32 & 0x7f
		m := j >> 31
		x := float64(j) * wn[k]
		if uint32((j^m)-m) >= kn[k] {
			x = normSlow(u, s)
		}
		readings[i] += mean + sigma*x
	}
}

// readoutAt is addAt with the ADC behind it: dst[i] is converter.Quantize of
// readings[i] plus draw ctr+i of the stream whose origin is base — the same
// float operations as addAt and then QuantizeInto, in one pass that writes no
// reading back and reads none again. Quantize inlines without a branch, and
// the loop's values stay in registers on the fast path: only the rare
// normSlow call saves and restores them around itself.
func (n *NoiseModel) readoutAt(dst []fixed.Code, readings []float64, base, ctr uint64) {
	mean, sigma := n.Mean, n.Sigma
	s := base + ctr*weyl
	dst = dst[:len(readings)]
	for i := 0; i < len(readings); i++ {
		s += weyl
		u := wyfold(s, wyMul)
		j := int32(u)
		k := u >> 32 & 0x7f
		m := j >> 31
		x := float64(j) * wn[k]
		if uint32((j^m)-m) >= kn[k] {
			x = normSlow(u, s)
		}
		dst[i] = converter.Quantize(readings[i] + (mean + sigma*x))
	}
}
