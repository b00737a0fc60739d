package photonic

import (
	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// The core's one partials loop. The serve path coalesces the photonic work
// of many queries into one pass: a sequence of operand groups — each group is
// one query's same-sign operand block — streams back to back under a single
// LUT-validity decision. Every group keeps its own tail step, so the analog
// steps (and, with a noise model, the order of the noise draws) are exactly
// those of the groups run one call each; DotPartialsInto is the one-group
// case and Dot sums the same partials.

// DotPartialsBatchInto computes photonic partials for a sequence of operand
// groups in one pass. Group g occupies a[bounds[g]:bounds[g+1]] and
// b[bounds[g]:bounds[g+1]]; bounds must start at 0, end at len(a), and be
// non-decreasing (empty groups are legal and contribute no partials). Each
// group is streamed through the lanes independently — its final short step
// handles its own tail, never mixing elements of two groups in one analog
// step — and the per-step detector readings are written into dst in group
// order, concatenated.
//
// The LUT-validity decision is made once for the whole call: this is the
// batching amortization (N queries × 2 sign groups collapse 2N staleness
// sweeps into 1). A fault injected between queries (the granularity the fault
// runner operates at) is seen at the next call's first step, and the whole
// call then takes Step, the live transfer chain, a step at a time.
//
// dst is caller-owned storage, reallocated only when capacity is short;
// with sufficient capacity the call performs zero heap allocations.
func (c *Core) DotPartialsBatchInto(dst []float64, a, b []fixed.Code, bounds []int) []float64 {
	if len(a) != len(b) {
		panic("photonic: dot product operand length mismatch")
	}
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != len(a) {
		panic("photonic: batch bounds must run from 0 to len(a)")
	}
	n := c.NumLanes()
	total := 0
	for g := 0; g+1 < len(bounds); g++ {
		if bounds[g+1] < bounds[g] {
			panic("photonic: batch bounds must be non-decreasing")
		}
		total += (bounds[g+1] - bounds[g] + n - 1) / n
	}
	dst = growPartials(dst, total)
	if !c.LUTsValid() {
		i := 0
		for g := 0; g+1 < len(bounds); g++ {
			for lo, hi := bounds[g], bounds[g+1]; lo < hi; lo += n {
				end := min(lo+n, hi)
				dst[i] = c.Step(a[lo:end], b[lo:end])
				i++
			}
		}
		return dst
	}
	c.pass(dst, a, b, bounds)
	c.noise.addTo(dst)
	c.Steps += uint64(total)
	return dst
}

// PartialsAt is the kernel of DotPartialsBatchInto's fast path for one
// operand group, with the noise position named instead of taken from the
// cursor: it writes the ⌈len(a)/NumLanes⌉ readings of a·b into dst, with draws
// ctr, ctr+1, … of key's noise stream added — bit for bit what
// DotPartialsBatchInto writes for those steps when SeekNoiseAt(key, ctr) put
// the cursor there. A group cut at a multiple of NumLanes operands and issued
// piecewise at the matching positions reads the same as issued whole.
//
// It only reads the core: the cursor does not move and Steps is not counted,
// so several goroutines may call it at once on disjoint dst while nothing
// else touches the core. The caller counts the steps. Valid only while
// LUTsValid holds; a stale core takes Step, through DotPartialsInto.
//
//lint:allow reachability TestPartialsAtMatchesCursorPass and FuzzTwoLaneKernel hold the kernel to Step through it
func (c *Core) PartialsAt(dst []float64, a, b []fixed.Code, key, ctr uint64) {
	dst = c.ReadingsInto(dst, a, b)
	if m := c.noise; m != nil {
		m.addAt(dst, streamBase(m.seeded, key), ctr)
	}
}

// ReadingsInto writes the ⌈len(a)/NumLanes⌉ noiseless readings of one
// operand group into dst and returns them: ReadingsGroupsInto over a single
// group, and the kernel half of PartialsAt.
//
//lint:allow reachability FuzzTwoLaneKernel, and TestSpanMatchesPerRow's per-row reference issues through it
func (c *Core) ReadingsInto(dst []float64, a, b []fixed.Code) []float64 {
	n := len(c.lanes)
	dst = dst[:(len(a)+n-1)/n]
	bounds := [2]int{0, len(a)}
	c.pass(dst, a, b, bounds[:])
	return dst
}

// ReadingsGroupsInto writes the noiseless readings of a sequence of operand
// groups into dst, back to back: group g is a[bounds[g]:bounds[g+1]] against
// the same span of b, bounds running from 0 to len(a), and takes
// ⌈(bounds[g+1]−bounds[g])/NumLanes⌉ steps, its tail step its own — what a
// ReadingsInto call per group writes. dst must hold those steps. It is the
// first half of a readout: a caller whose groups' steps sit at consecutive
// positions of a keyed stream reads them out with one ReadoutAt, and one with
// several streams with one ReadoutAt a stream.
func (c *Core) ReadingsGroupsInto(dst []float64, a, b []fixed.Code, bounds []int) {
	c.pass(dst, a, b, bounds)
}

// ReadoutAt digitizes noiseless readings at the detector: code i of dst is
// converter.Quantize of readings[i] with draw ctr+i of key's noise stream
// added — bit for bit QuantizeInto of what PartialsAt reads at ctr — in one
// pass that writes no reading back. A noiseless core only rounds. Like
// PartialsAt it only reads the core, so goroutines may call it at once on
// disjoint spans.
func (c *Core) ReadoutAt(dst []fixed.Code, readings []float64, key, ctr uint64) {
	if m := c.noise; m != nil {
		m.readoutAt(dst, readings, streamBase(m.seeded, key), ctr)
	} else {
		converter.QuantizeInto(dst, readings)
	}
}

// pass is the one place the kernel is picked: stream2 on a core of exactly
// two lanes, neither dead, and stream on any other. It is asked on every
// call, because Kill can land between two.
func (c *Core) pass(dst []float64, a, b []fixed.Code, bounds []int) {
	if l := c.lanes; len(l) == 2 && !l[0].dead && !l[1].dead {
		c.stream2(dst, a, b, bounds)
	} else {
		c.stream(dst, a, b, bounds)
	}
}

// stream is the dot kernel's first pass: the noiseless readings of a
// sequence of operand groups (ReadingsGroupsInto), ⌈len/lanes⌉ a group into
// dst, valid while the LUTs are. It is the generic kernel — any lane count,
// dead lanes skipped — and pass gives it every core but one of two live
// lanes. A lane's product starts from its front table, carrier·g1[a]·tap1
// folded at the core's carrier, and is multiplied by g2[b] and tap2; the
// detector constants sit in registers and each lane's tables and taps one
// pointer away; nothing in the body is a call, so consecutive steps' multiply
// chains and decode divides overlap in the processor. A group's short tail
// step is the same body over the lanes that still have an operand. The noise
// is the second pass, over the same span in step order (NoiseModel.addAt, or
// readoutAt with the ADC's rounding behind it): the draw's rare slow path is
// a call that does not inline, and inside this loop it would push every held
// value back to memory around itself on each step and leave the steps
// nothing to overlap with — the per-step cost this kernel exists to remove. A
// reading's float operations and their order, and the order of the draws,
// are Step's, so the readings are bit-identical to Step's and the rng stays
// in lockstep with it.
//
// The core is only read, and the noise and the step count stay out of the
// body, because the compiler keeps its values in registers only while the
// function is this small: the same loops written inside DotPartialsBatchInto,
// or with the noise pass and the step count below them, reload spilled values
// in the lane loop and measured half as fast again. The loop over groups
// adds only a reslice a group to that body.
func (c *Core) stream(dst []float64, a, b []fixed.Code, bounds []int) {
	n := len(c.lanes)
	dark, resp, darkPerLane := c.pd.DarkLevel, c.pd.Responsivity, c.darkPerLane
	span := c.spanPerLane * float64(max(c.FullScaleLanes, 1))
	i := 0
	for g := 1; g < len(bounds); g++ {
		ga, gb := a[bounds[g-1]:bounds[g]], b[bounds[g-1]:bounds[g]]
		lanes, idle := c.lanes, float64(n)*darkPerLane
		for off := 0; off < len(ga); off += n {
			if k := len(ga) - off; k < n {
				lanes, idle = lanes[:k], float64(k)*darkPerLane
			}
			var detected float64
			for t, l := range lanes {
				if !l.dead {
					detected += l.front[ga[off+t]] * l.g2[gb[off+t]] * l.tap2
				}
			}
			dst[i] = (dark + resp*detected - idle) / span * fixed.MaxCode
			i++
		}
	}
}

// stream2 is stream for the prototype's two live wavelengths, the core every
// served shard has. With the lane count fixed there is no lane loop: both
// lanes' table addresses and taps are named locals the loop keeps in
// registers, a step takes two operands, and an odd group ends in one
// single-lane step. A reading is the same float operations in the same order
// as stream's and Step's — lane 0's front·g2·tap2, lane 1's added to it, then
// the decode — only where the operands are loaded from differs, so readings
// are bit-identical to theirs.
func (c *Core) stream2(dst []float64, a, b []fixed.Code, bounds []int) {
	l0, l1 := c.lanes[0], c.lanes[1]
	f0, g20, t20 := &l0.front, &l0.g2, l0.tap2
	f1, g21, t21 := &l1.front, &l1.g2, l1.tap2
	dark, resp, darkPerLane := c.pd.DarkLevel, c.pd.Responsivity, c.darkPerLane
	span := c.spanPerLane * float64(max(c.FullScaleLanes, 1))
	idle := 2 * darkPerLane
	i := 0
	for g := 1; g < len(bounds); g++ {
		ga, gb := a[bounds[g-1]:bounds[g]], b[bounds[g-1]:bounds[g]]
		gb = gb[:len(ga)]
		for off := 1; off < len(ga); off += 2 {
			d := f0[ga[off-1]] * g20[gb[off-1]] * t20
			d += f1[ga[off]] * g21[gb[off]] * t21
			dst[i] = (dark + resp*d - idle) / span * fixed.MaxCode
			i++
		}
		if len(ga)%2 == 1 {
			k := len(ga) - 1
			d := f0[ga[k]] * g20[gb[k]] * t20
			dst[i] = (dark + resp*d - darkPerLane) / span * fixed.MaxCode
			i++
		}
	}
}
