// Package datapath implements Lightning's digital datapath modules, each
// driven by the count-action abstraction of §5: the synchronous data
// streamer (§5.1), preamble generation and detection (§5.2), the pipeline
// parallel adder and non-linear units (§5.3), and the layer execution engine
// that ties them to the photonic core.
package datapath

import (
	"fmt"
	"math/bits"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/countaction"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// Preamble voltage levels: H is a high sample, L a low sample.
const (
	HighLevel fixed.Code = 255
	LowLevel  fixed.Code = 0
)

// Matching thresholds separating H/L from each other and from the
// idle-channel noise floor. A sample above HighThreshold reads as H; below
// LowThreshold as L; anything between matches neither.
const (
	HighThreshold fixed.Code = 192
	LowThreshold  fixed.Code = 64
)

// Pattern is a single-cycle preamble pattern: exactly one digital clock
// cycle's worth of H/L samples (true = H). The prototype uses
// HHHHHHHHLLLLLLLL (§6.3).
type Pattern [converter.SamplesPerCycle]bool

// PrototypePattern returns the testbed's pattern: 8 high then 8 low samples.
func PrototypePattern() Pattern {
	var p Pattern
	for i := 0; i < converter.SamplesPerCycle/2; i++ {
		p[i] = true
	}
	return p
}

// ParsePattern builds a pattern from a string of 'H' and 'L' runes, e.g.
// "HHHHHHHHLLLLLLLL".
//
//lint:allow reachability TestParsePattern and TestNonDefaultPreambleServesOracle build preambles with it
func ParsePattern(s string) (Pattern, error) {
	var p Pattern
	if len(s) != converter.SamplesPerCycle {
		return p, fmt.Errorf("datapath: pattern %q must have %d symbols", s, converter.SamplesPerCycle)
	}
	for i, r := range s {
		switch r {
		case 'H':
			p[i] = true
		case 'L':
			p[i] = false
		default:
			return p, fmt.Errorf("datapath: pattern symbol %q at %d (want H or L)", r, i)
		}
	}
	return p, nil
}

// String renders the pattern as H/L symbols.
func (p Pattern) String() string {
	b := make([]byte, len(p))
	for i, h := range p {
		if h {
			b[i] = 'H'
		} else {
			b[i] = 'L'
		}
	}
	return string(b)
}

// Codes expands the pattern into analog sample codes.
func (p Pattern) Codes() []fixed.Code {
	out := make([]fixed.Code, len(p))
	for i, h := range p {
		if h {
			out[i] = HighLevel
		} else {
			out[i] = LowLevel
		}
	}
	return out
}

// Shifted returns the pattern as it appears in a readout frame when the
// analog burst started k sample positions into a cycle: sample j of the
// frame carries pattern position (j-k) mod 16, i.e. the pattern rotated
// right by k (Listing 2's "preamble_pattern << k").
func (p Pattern) Shifted(k int) Pattern {
	var out Pattern
	n := len(p)
	for j := 0; j < n; j++ {
		out[j] = p[((j-k)%n+n)%n]
	}
	return out
}

// MatchFrame reports whether an ADC readout frame structurally matches the
// pattern under the H/L thresholds.
//
//lint:allow reachability FuzzDetectorMaskEquivalence holds the mask detector to it
func (p Pattern) MatchFrame(f converter.Frame) bool {
	for i, h := range p {
		if h {
			if f[i] < HighThreshold {
				return false
			}
		} else {
			if f[i] > LowThreshold {
				return false
			}
		}
	}
	return true
}

// PreambleConfig selects the preamble for a deployment. P is chosen by SNR
// conditions, not by model ("P is a configurable parameter that is
// model-agnostic and only depends on the signal-to-noise ratio of the
// setup"). The prototype repeats its pattern ten times.
type PreambleConfig struct {
	Pattern Pattern
	// Repetitions is P: how many times the single-cycle pattern repeats.
	Repetitions int
	// MinMatches, when positive, relaxes Listing 2's exact-count targets:
	// a shift fires after MinMatches pattern observations instead of P
	// (or P−1). Listing 2's exact counts are the clean-channel special
	// case; on a noisy channel a corrupted repetition would otherwise
	// strand the count one short of the target forever, so deployments
	// trade preamble overhead (larger P) for corruption slack
	// (MinMatches < P−1). Zero selects the paper's exact-count rule.
	MinMatches int
}

// PrototypePreamble is the testbed configuration: HHHHHHHHLLLLLLLL ×10.
func PrototypePreamble() PreambleConfig {
	return PreambleConfig{Pattern: PrototypePattern(), Repetitions: 10}
}

// Samples returns the preamble's total sample count.
func (c PreambleConfig) Samples() int {
	return c.Repetitions * converter.SamplesPerCycle
}

// Prepend returns the preamble followed by the payload vector — what the
// datapath streams into a DAC for each vector (§5.2: "Lightning adds a
// preamble pattern to each vector in the digital domain before streaming its
// data into the DACs").
func (c PreambleConfig) Prepend(payload []fixed.Code) []fixed.Code {
	out := make([]fixed.Code, 0, c.Samples()+len(payload))
	pat := c.Pattern.Codes()
	for i := 0; i < c.Repetitions; i++ {
		out = append(out, pat...)
	}
	return append(out, payload...)
}

// Detector implements the preamble_detection_per_ADC module of Listing 2
// with one count-action rule per shift k: the k=0 rule targets P counts and
// each k>0 rule targets P-1 (the first, partial repetition never matches a
// shifted pattern).
type Detector struct {
	Config PreambleConfig
	Module *countaction.Module

	rules [converter.SamplesPerCycle]*countaction.Rule
	// high[k] has bit j set where the pattern shifted by k expects frame
	// sample j to read H; every other sample must read L.
	high     [converter.SamplesPerCycle]uint16
	detected int // -1 until a rule fires
}

// NewDetector builds a detector for the preamble configuration.
func NewDetector(cfg PreambleConfig) *Detector {
	if cfg.Repetitions < 2 {
		panic("datapath: preamble needs at least 2 repetitions to detect shifted bursts")
	}
	d := &Detector{
		Config:   cfg,
		Module:   countaction.NewModule("preamble_detection_per_ADC"),
		detected: -1,
	}
	for k := 0; k < converter.SamplesPerCycle; k++ {
		k := k
		target := countaction.Value(cfg.Repetitions)
		if k != 0 {
			target = countaction.Value(cfg.Repetitions - 1)
		}
		if cfg.MinMatches > 0 && countaction.Value(cfg.MinMatches) < target {
			target = countaction.Value(cfg.MinMatches)
		}
		for j, h := range cfg.Pattern.Shifted(k) {
			if h {
				d.high[k] |= 1 << j
			}
		}
		d.rules[k] = d.Module.Attach(countaction.New(
			fmt.Sprintf("shift-%02d", k), target,
			func() { d.detected = k },
		))
	}
	return d
}

// Reset rearms the detector for the next vector.
func (d *Detector) Reset() {
	d.detected = -1
	d.Module.Reset()
}

// levelMasks thresholds a frame once for all sixteen shifts: bit j of hi is
// set where sample j reads H (≥ HighThreshold), bit j of lo where it reads L
// (≤ LowThreshold). A sample between the thresholds sets neither. Each half
// of the frame is one word, tested a byte at a time in partition's idiom:
// adding 0x80 − t to a byte's low seven bits carries into its top bit
// exactly when they reach t. A byte reads H when its top bit and that carry
// at t = HighThreshold − 0x80 are set, and L when neither is at
// t = LowThreshold + 1.
func levelMasks(f *converter.Frame) (hi, lo uint16) {
	const (
		ones, low7, tops = 0x0101010101010101, 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
		hiAdd            = (0x80 - (uint64(HighThreshold) - 0x80)) * ones
		loAdd            = (0x7f - uint64(LowThreshold)) * ones
	)
	for i, w := range [2]uint64{octet(f[:8:8]), octet(f[8:16:16])} {
		h := w & (w&low7 + hiAdd) & tops
		l := ^(w | (w&low7 + loAdd)) & tops
		hi |= uint16(topBits(h)) << (8 * i)
		lo |= uint16(topBits(l)) << (8 * i)
	}
	return hi, lo
}

// topBits gathers the top bit of each byte of w into a byte, byte k's into
// bit k.
func topBits(w uint64) uint8 { return uint8((w >> 7) * 0x0102040810204080 >> 56) }

// shifts returns the shifts, bit k for shift k, whose pattern a frame with
// level masks hi and lo matches. A sample reads H, L or neither, so a frame
// matches shift k only when every sample reads one of the two (lo == ^hi)
// and its H samples are the shifted pattern's (hi == high[k]).
func (d *Detector) shifts(hi, lo uint16) (m uint16) {
	if lo != ^hi {
		return 0
	}
	for k, h := range d.high {
		if h == hi {
			m |= 1 << k
		}
	}
	return m
}

// Offer feeds one ADC readout frame to the detector. It returns the detected
// phase k (the position of the first meaningful sample within a cycle,
// triggering the "stream ADC.data[k:]" action) and true once the preamble
// has been counted the required number of times; until then it returns
// (-1, false). Shift k's rule observes Pattern.Shifted(k).MatchFrame(f):
// the rules of the shifts the frame matches (shifts) observe it, in k order,
// and every other rule's observation is false, which changes nothing.
func (d *Detector) Offer(f converter.Frame) (phase int, ok bool) {
	if d.detected >= 0 {
		return d.detected, true
	}
	for m := d.shifts(levelMasks(&f)); m != 0; m &= m - 1 {
		if d.rules[bits.TrailingZeros16(m)].Observe(true) && d.detected >= 0 {
			return d.detected, true
		}
	}
	return -1, false
}

// Detect runs the detector across a whole readout burst and returns the
// phase and the index of the frame at which detection completed. The
// experiments and tests that look at frames use it; the engine detects on
// its flat stream (DetectStream).
func (d *Detector) Detect(frames []converter.Frame) (phase, frameIdx int, ok bool) {
	for i := range frames {
		if k, done := d.Offer(frames[i]); done {
			return k, i, true
		}
	}
	return -1, len(frames), false
}

// DetectStream is Detect over a readout kept as one flat sample stream
// (converter.ADC.OpenBurst), a frame every SamplesPerCycle samples.
func (d *Detector) DetectStream(stream []fixed.Code) (phase, frameIdx int, ok bool) {
	const spc = converter.SamplesPerCycle
	for i := 0; i+spc <= len(stream); i += spc {
		if k, done := d.Offer(converter.Frame(stream[i : i+spc])); done {
			return k, i / spc, true
		}
	}
	return -1, len(stream) / spc, false
}

// StreamPayload removes the preamble from a flat readout given the detected
// phase: the payloadLen meaningful samples right after the preamble's end,
// as a view into the stream. The preamble occupies phase + P·16 samples from
// the start of the burst's first frame; a stream that ends before the
// payload does yields a short view, nil if it ends inside the preamble.
func (d *Detector) StreamPayload(stream []fixed.Code, phase, payloadLen int) []fixed.Code {
	start := phase + d.Config.Samples()
	end := min(start+payloadLen, len(stream))
	if end <= start {
		return nil
	}
	return stream[start:end]
}

// ExtractPayload is StreamPayload for a readout held as frames, which it
// flattens first.
func (d *Detector) ExtractPayload(frames []converter.Frame, phase, payloadLen int) []fixed.Code {
	var flat []fixed.Code
	for i := range frames {
		flat = append(flat, frames[i][:]...)
	}
	return d.StreamPayload(flat, phase, payloadLen)
}
