// Package photonic models Lightning's analog optical components: lasers,
// Mach-Zehnder amplitude modulators, photodetectors, WDM multiplexers,
// splitters, the bias controller and RF amplifiers of Appendix B, the
// calibration procedure of Appendix A, and the vector dot-product core
// architectures of §2.1 and Appendix E.
//
// All light intensities are normalized so that the carrier laser emits 1.0.
// Voltages are in volts. The models capture the transfer functions the paper
// measures (sinusoidal MZM response, linear photodetection, additive Gaussian
// shot/thermal noise) rather than full electromagnetic simulation: those
// transfer functions are exactly what Figures 14, 17, 18 and 23 exercise.
package photonic

import (
	"math"
)

// MZModulator is a Mach-Zehnder intensity modulator (Fig 1). Its optical
// transmission follows the raised-cosine interferometer response
//
//	T(v) = floor + (1-floor) * (1 - cos(pi*(v + Bias + PhaseOffset)/Vpi)) / 2
//
// where Vpi is the half-wave voltage (5 V for the prototype's Thorlabs
// LN81S-FC parts, Appendix B) and PhaseOffset models the device's intrinsic
// bias point, unknown until the bias controller sweeps it (Fig 23).
type MZModulator struct {
	// Vpi is the half-wave voltage: the drive swing between full
	// extinction and full transmission.
	Vpi float64
	// Bias is the DC bias voltage applied by the bias controller.
	Bias float64
	// PhaseOffset is the device's intrinsic phase expressed in volts;
	// it shifts where in the sinusoid v=0 lands.
	PhaseOffset float64
	// ExtinctionFloor is the residual transmission at the null point,
	// modeling the finite extinction ratio of a real device (e.g. 0.002
	// for ~27 dB extinction). Zero means an ideal modulator.
	ExtinctionFloor float64
	// TapFraction is the fraction of output light tapped off for the
	// bias controller ("we tap 1% light at each modulator's output port
	// for bias voltage determination", Appendix B).
	TapFraction float64
}

// NewMZModulator returns a modulator with the prototype's parameters: 5 V
// half-wave voltage, 1% monitoring tap, a small extinction floor, and the
// given intrinsic phase offset.
func NewMZModulator(phaseOffset float64) *MZModulator {
	return &MZModulator{
		Vpi:             5.0,
		PhaseOffset:     phaseOffset,
		ExtinctionFloor: 0.002,
		TapFraction:     0.01,
	}
}

// mzState is the complete parameter snapshot that determines a modulator's
// transfer function. A Lane keeps the snapshot its transmission LUTs were
// baked at and re-bakes them whenever the live state differs — a
// bias-controller runaway, a thermal-drift step, an operator tweak — so the
// tables follow the modulator; only Relock re-fits the drive voltages that
// heal the move.
type mzState struct {
	vpi, bias, phase, floor, tap float64
}

// state snapshots the modulator's transfer-determining parameters.
func (m *MZModulator) state() mzState {
	return mzState{m.Vpi, m.Bias, m.PhaseOffset, m.ExtinctionFloor, m.TapFraction}
}

// Transmission returns the optical power transmission in [0, 1] for drive
// voltage v at the current bias point.
func (m *MZModulator) Transmission(v float64) float64 {
	t := 0.5 * (1 - math.Cos(math.Pi*(v+m.Bias+m.PhaseOffset)/m.Vpi))
	return m.ExtinctionFloor + (1-m.ExtinctionFloor)*t
}

// Modulate applies the modulator to an input intensity, returning the
// intensity at the main output port (after the monitoring tap).
func (m *MZModulator) Modulate(in, v float64) float64 {
	return in * m.Transmission(v) * (1 - m.TapFraction)
}

// TapOutput returns the intensity at the 1% monitoring tap used by the bias
// controller to lock the operating point.
func (m *MZModulator) TapOutput(in, v float64) float64 {
	return in * m.Transmission(v) * m.TapFraction
}

// EncodingRange returns the drive-voltage interval [lo, hi] over which the
// biased transfer function rises monotonically from its minimum to its
// maximum — the "encoding zone" of Fig 23. It assumes the bias controller
// has locked the null at v=0, so the zone is [0, Vpi].
func (m *MZModulator) EncodingRange() (lo, hi float64) {
	return 0, m.Vpi
}

// BiasController locks a modulator at its maximum extinction ratio, the
// procedure of Appendix B: "we should set the bias voltage of both
// modulators to achieve their max extinction ratio, such that no (or
// minimal) light can go through the modulator".
type BiasController struct {
	// SweepLo, SweepHi bound the bias sweep (−9 V to 9 V in the paper).
	SweepLo, SweepHi float64
	// Step is the sweep granularity in volts.
	Step float64
}

// NewBiasController returns a controller with the paper's sweep range.
func NewBiasController() *BiasController {
	return &BiasController{SweepLo: -9, SweepHi: 9, Step: 0.01}
}

// SweepPoint is one sample of the bias sweep of Fig 23.
type SweepPoint struct {
	Bias    float64
	Reading float64 // photodetector reading at zero signal drive
}

// Sweep drives the modulator's bias across the range with zero signal
// voltage and records the tapped output, reproducing Fig 23.
func (bc *BiasController) Sweep(m *MZModulator, carrier float64) []SweepPoint {
	var pts []SweepPoint
	saved := m.Bias
	defer func() { m.Bias = saved }()
	for b := bc.SweepLo; b <= bc.SweepHi+1e-9; b += bc.Step {
		m.Bias = b
		pts = append(pts, SweepPoint{Bias: b, Reading: m.TapOutput(carrier, 0)})
	}
	return pts
}

// Lock sweeps the modulator and sets its bias to the point of minimum
// transmission (maximum extinction ratio), returning the chosen bias.
func (bc *BiasController) Lock(m *MZModulator, carrier float64) float64 {
	pts := bc.Sweep(m, carrier)
	best := pts[0]
	for _, p := range pts[1:] {
		if p.Reading < best.Reading {
			best = p
		}
	}
	m.Bias = best.Bias
	return best.Bias
}
