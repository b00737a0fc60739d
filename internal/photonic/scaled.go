package photonic

import "fmt"

// ScaledCoreSpec captures the device-count algebra of Table 5 and Appendix E:
// how many modulators, photodetectors and wavelengths a photonic vector
// dot-product core needs when it accumulates over N wavelengths, performs W
// parallel modulations per modulator, and serves an inference batch of B.
type ScaledCoreSpec struct {
	// N is the number of accumulation wavelengths per photodetector.
	N int
	// W is the number of parallel modulations on a single modulator.
	W int
	// B is the inference batch size served by photonic broadcasting.
	B int
}

// MACsPerStep returns the multiply-accumulate operations performed in a
// single analog time step: N·W·B (Table 5, bottom row).
func (s ScaledCoreSpec) MACsPerStep() int { return s.N * s.W * s.B }

// WeightModulators returns the modulator count for encoding the weight
// matrix: N·W.
func (s ScaledCoreSpec) WeightModulators() int { return s.N * s.W }

// InputModulators returns the modulator count for encoding input vectors:
// N·B.
func (s ScaledCoreSpec) InputModulators() int { return s.N * s.B }

// Modulators returns the total modulator count.
func (s ScaledCoreSpec) Modulators() int { return s.WeightModulators() + s.InputModulators() }

// Photodetectors returns the accumulation photodetector count: W·B.
func (s ScaledCoreSpec) Photodetectors() int { return s.W * s.B }

// DistinctWavelengths returns the comb-line count: max(N, W).
func (s ScaledCoreSpec) DistinctWavelengths() int {
	if s.N > s.W {
		return s.N
	}
	return s.W
}

// Validate checks the spec's parameters.
func (s ScaledCoreSpec) Validate() error {
	if s.N <= 0 || s.W <= 0 || s.B <= 0 {
		return fmt.Errorf("photonic: scaled core spec needs positive N, W, B; got N=%d W=%d B=%d", s.N, s.W, s.B)
	}
	return nil
}

// Fig25Spec is the worked example of Appendix E: N=3 accumulation
// wavelengths, W=2 parallel modulations, batch B=2, performing 12 MACs per
// analog step with 12 modulators and 4 photodetectors.
func Fig25Spec() ScaledCoreSpec { return ScaledCoreSpec{N: 3, W: 2, B: 2} }

// ChipSpec is the production chip design of §8: 24 wavelengths × 24 parallel
// modulations = 576 photonic MACs per step at 97 GHz. (B=1: the chip design
// in Table 2 counts 600 modulators = 24·24 weight + 24·1 input and 24
// photodetectors.)
func ChipSpec() ScaledCoreSpec { return ScaledCoreSpec{N: 24, W: 24, B: 1} }
