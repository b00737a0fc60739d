// Package converter models the RFSoC's RF data converters: the DACs that
// turn 8-bit datapath samples into analog drive voltages and the ADCs that
// digitize photodetector output (§6.1). The prototype clocks the digital
// datapath at 253.44 MHz with 16 samples per FPGA clock cycle, giving each
// converter a 4.055 GS/s analog rate — which is why Lightning computes at
// 4.055 GHz.
//
// Two behaviours of the real converters drive Lightning's datapath design
// and are modeled here:
//
//   - Each DAC lane raises a `valid` flag when a new sample is ready and
//     drops it when starved (the AXI-stream handshake), which the
//     synchronous data streamer counts to keep parallel lanes aligned
//     (Listing 1).
//   - Each ADC delivers its 16 parallel samples per digital cycle with an
//     *unknown phase*: meaningful data can start at any of the 16 positions
//     (Fig 8), which is why preamble detection exists (Listing 2).
package converter

import (
	"math/rand/v2"
	"slices"

	"github.com/lightning-smartnic/lightning/internal/axi"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// SamplesPerCycle is the prototype's converter parallelism: 16 analog
// samples move per 253.44 MHz digital clock cycle.
const SamplesPerCycle = 16

// DigitalClockHz is the prototype datapath clock.
const DigitalClockHz = 253.44e6

// SampleRateHz is the resulting analog sample rate (4.055 GS/s).
const SampleRateHz = DigitalClockHz * SamplesPerCycle

// DAC is one digital-to-analog converter lane fed by an AXI stream.
type DAC struct {
	// In is the sample FIFO the memory controller or packet datapath
	// fills.
	In *axi.Stream[fixed.Code]
	// Emitted counts samples converted to the analog domain.
	Emitted uint64
}

// NewDAC creates a DAC lane with the given FIFO depth in samples.
func NewDAC(depth int) *DAC {
	return &DAC{In: axi.NewStream[fixed.Code](depth)}
}

// Valid reports whether a new data sample is ready to be transferred — the
// flag of Listing 1, "automatically set to be 1 when a new 8-bit data sample
// is ready ... flips back to 0 if no new data samples arrive".
func (d *DAC) Valid() bool { return d.In.Valid() }

// ValidCount returns 1 when valid, else 0, for count-action summation.
func (d *DAC) ValidCount() int64 {
	if d.Valid() {
		return 1
	}
	return 0
}

// EmitN converts up to n buffered samples. The streamer uses this to keep
// parallel lanes in lockstep when one lane holds fewer samples than a full
// cycle's worth.
func (d *DAC) EmitN(n int) []fixed.Code {
	if n > SamplesPerCycle {
		n = SamplesPerCycle
	}
	out := make([]fixed.Code, 0, n)
	for len(out) < n {
		b, err := d.In.Pop()
		if err != nil {
			break
		}
		out = append(out, b.Data)
	}
	d.Emitted += uint64(len(out))
	return out
}

// ADC digitizes analog readings into 8-bit codes and models the
// unknown-phase parallel readout of Fig 8.
type ADC struct {
	// NoiseFloor is the maximum amplitude (in codes) of the idle-channel
	// noise samples surrounding meaningful data.
	NoiseFloor fixed.Code
	rng        *rand.Rand
	// Quantized counts samples digitized.
	Quantized uint64
}

// NewADC returns an ADC with a small idle-channel noise floor, seeded for
// reproducibility.
func NewADC(seed uint64) *ADC {
	return &ADC{NoiseFloor: 12, rng: rand.New(rand.NewPCG(seed, 0xadc))}
}

// Quantize is the ADC's rounding rule, the one every digitization applies:
// round half away from zero, as math.Round does, saturating at the rails. For
// 0.5 ≤ v < 254.5 the code is ⌊v+0.5⌋ by truncation: v+0.5 is exact unless
// it crosses a power of two 2ᵖ ≥ 1, and then it rounds to no less than 2ᵖ
// and below 2ᵖ+1, whose floor 2ᵖ is v's rounding too. Below 0.5 the code is
// 0 (v+0.5 itself may round up to 1) and from 254.5 it is 255, both picked by
// a conditional move, so the rule inlines into a noise pass without a branch
// or a call (math.Round's showed as 8 % of a long-vector query). It counts
// nothing, so any goroutine may call it.
func Quantize(v float64) fixed.Code {
	t := int(v + 0.5)
	if v < 0.5 {
		t = 0
	}
	if v >= fixed.MaxCode-0.5 {
		t = fixed.MaxCode
	}
	return fixed.Code(t)
}

// noiseSample draws one idle-channel sample below the noise floor.
func (a *ADC) noiseSample() fixed.Code {
	if a.NoiseFloor == 0 {
		return 0
	}
	return fixed.Code(a.rng.IntN(int(a.NoiseFloor) + 1))
}

// Frame is one digital clock cycle's parallel ADC readout: SamplesPerCycle
// samples delivered simultaneously to the datapath.
type Frame [SamplesPerCycle]fixed.Code

// ReadoutFrames packages a burst of analog readings into per-cycle frames as
// the datapath sees them: the burst begins at sample position `phase` within
// the first frame (0 ≤ phase < SamplesPerCycle); positions before it — and
// after the burst ends — carry idle-channel noise (Fig 8a: phase 0; Fig 8b:
// phase 6 leaves samples 0–5 as noise).
func (a *ADC) ReadoutFrames(readings []float64, phase int) []Frame {
	return a.ReadoutBurstInto(nil, nil, readings, phase)
}

// ReadoutBurstInto is the framed readout of a burst made of a prefix of
// samples whose codes are already known — the datapath's preamble, which the
// DAC emits at exact rail levels, so digitizing it is the identity —
// followed by analog readings to quantize: the flat burst below, cut into
// frames appended to dst. It serves the experiments and tests that look at
// frames; the engine reads its bursts flat.
func (a *ADC) ReadoutBurstInto(dst []Frame, prefix []fixed.Code, readings []float64, phase int) []Frame {
	s := a.CloseBurst(a.Digitize(a.OpenBurst(nil, prefix, phase), readings))
	for ; len(s) > 0; s = s[SamplesPerCycle:] {
		dst = append(dst, Frame(s))
	}
	return dst
}

// A burst readout is kept as the flat sample stream the datapath sees, frame
// f being samples [f·SamplesPerCycle, (f+1)·SamplesPerCycle): OpenBurst,
// any number of Digitize calls as readings arrive (or Reserve, with the
// reserved span filled by Quantize's codes), CloseBurst. Idle noise is
// drawn for the positions before the burst (on open) and then for those
// after it (on close), and for nothing in between; prefix and readings both
// count as digitized samples.

// OpenBurst starts a burst in buf's storage (contents discarded) at sample
// position phase of its first frame: idle noise ahead of it, then the prefix
// of known codes.
func (a *ADC) OpenBurst(buf, prefix []fixed.Code, phase int) []fixed.Code {
	if phase < 0 || phase >= SamplesPerCycle {
		panic("converter: readout phase out of range")
	}
	buf = slices.Grow(buf[:0], phase+len(prefix))[:phase+len(prefix)]
	for i := 0; i < phase; i++ {
		buf[i] = a.noiseSample()
	}
	copy(buf[phase:], prefix)
	a.Quantized += uint64(len(prefix))
	return buf
}

// Digitize quantizes analog readings onto the tail of an open burst: Reserve
// then QuantizeInto.
func (a *ADC) Digitize(burst []fixed.Code, readings []float64) []fixed.Code {
	at := len(burst)
	burst = a.Reserve(burst, len(readings))
	QuantizeInto(burst[at:], readings)
	return burst
}

// Reserve extends an open burst by n samples, counted as digitized, whose
// codes the caller fills by Quantize — QuantizeInto, or a pass that rounds
// as it reads — in pieces, in any order, from any goroutine, so long as the
// pieces cover them and the burst is not closed first.
func (a *ADC) Reserve(burst []fixed.Code, n int) []fixed.Code {
	at := len(burst)
	burst = slices.Grow(burst, n)[:at+n]
	a.Quantized += uint64(n)
	return burst
}

// QuantizeInto writes the code of each reading into dst, which must be at
// least as long: the ADC's rounding without its counters, so it is safe to
// call on disjoint spans at once.
func QuantizeInto(dst []fixed.Code, readings []float64) {
	dst = dst[:len(readings)]
	for i, v := range readings {
		dst[i] = Quantize(v)
	}
}

// CloseBurst ends a burst: idle noise fills its last frame (a burst with no
// samples at all still reads one frame of noise).
func (a *ADC) CloseBurst(burst []fixed.Code) []fixed.Code {
	at := len(burst)
	n := max(1, (at+SamplesPerCycle-1)/SamplesPerCycle) * SamplesPerCycle
	burst = slices.Grow(burst, n-at)[:n]
	for ; at < n; at++ {
		burst[at] = a.noiseSample()
	}
	return burst
}

// RandomPhase draws a readout phase uniformly, modeling the arbitrary
// alignment between the analog burst and the digital clock.
func (a *ADC) RandomPhase() int { return a.rng.IntN(SamplesPerCycle) }
