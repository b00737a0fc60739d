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
	fast := c.LUTsValid()
	i := 0
	for g := 0; g+1 < len(bounds); g++ {
		lo, hi := bounds[g], bounds[g+1]
		if !fast {
			for ; lo < hi; lo += n {
				end := min(lo+n, hi)
				dst[i] = c.Step(a[lo:end], b[lo:end])
				i++
			}
			continue
		}
		part := dst[i : i+(hi-lo+n-1)/n]
		c.pass(part, a[lo:hi], b[lo:hi])
		c.noise.addTo(part)
		c.Steps += uint64(len(part))
		i += len(part)
	}
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
func (c *Core) PartialsAt(dst []float64, a, b []fixed.Code, key, ctr uint64) {
	dst = c.ReadingsInto(dst, a, b)
	if m := c.noise; m != nil {
		m.addAt(dst, streamBase(m.seeded, key), ctr)
	}
}

// ReadingsInto writes the ⌈len(a)/NumLanes⌉ noiseless readings of one
// operand group into dst and returns them: the kernel half of PartialsAt,
// and the first half of a readout. A caller with several groups whose steps
// sit at consecutive positions runs it per group and ReadoutAt over them
// all.
func (c *Core) ReadingsInto(dst []float64, a, b []fixed.Code) []float64 {
	n := len(c.lanes)
	dst = dst[:(len(a)+n-1)/n]
	c.pass(dst, a, b)
	return dst
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

// pass is the one place a group's kernel is picked: stream2 on a core of
// exactly two lanes, neither dead, and stream on any other. It is asked on
// every call, because Kill can land between two.
func (c *Core) pass(dst []float64, a, b []fixed.Code) {
	if l := c.lanes; len(l) == 2 && !l[0].dead && !l[1].dead {
		c.stream2(dst, a, b)
	} else {
		c.stream(dst, a, b)
	}
}

// stream is the dot kernel's first pass: one operand group's noiseless
// readings, ⌈len(a)/lanes⌉ of them into dst, valid while the LUTs are. It is
// the generic kernel — any lane count, dead lanes skipped — and pass gives it
// every core but one of two live lanes. A lane's product starts from its
// front table, carrier·g1[a]·tap1 folded at the core's carrier, and is
// multiplied by g2[b] and tap2; the detector constants sit in registers and
// each lane's tables and taps one pointer away; nothing in the body is a
// call, so consecutive steps' multiply chains and decode divides overlap in
// the processor. The group's short tail step is the same body over the lanes
// that still have an operand. The noise is the second pass, over the same
// span in step order (NoiseModel.addAt, or readoutAt with the ADC's rounding
// behind it): the draw's rare slow path is a call that does not inline, and
// inside this loop it would push every held value back to memory around
// itself on each step and leave the steps nothing to overlap with — the
// per-step cost this kernel exists to remove. A reading's float operations
// and their order, and the order of the draws, are Step's, so the readings
// are bit-identical to Step's and the rng stays in lockstep with it.
//
// The group is the unit, not the call, and the core is only read, because the
// compiler keeps this body's values in registers only while the function is
// this small: the same loops written inside DotPartialsBatchInto, or with the
// noise pass and the step count below them, reload spilled values in the
// lane loop and measured half as fast again.
func (c *Core) stream(dst []float64, a, b []fixed.Code) {
	lanes, n := c.lanes, len(c.lanes)
	dark, resp, darkPerLane := c.pd.DarkLevel, c.pd.Responsivity, c.darkPerLane
	span := c.spanPerLane * float64(max(c.FullScaleLanes, 1))
	idle := float64(n) * darkPerLane
	b = b[:len(a)]
	i := 0
	for off := 0; off < len(a); off += n {
		if k := len(a) - off; k < n {
			lanes, idle = lanes[:k], float64(k)*darkPerLane
		}
		var detected float64
		for t, l := range lanes {
			if !l.dead {
				detected += l.front[a[off+t]] * l.g2[b[off+t]] * l.tap2
			}
		}
		dst[i] = (dark + resp*detected - idle) / span * fixed.MaxCode
		i++
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
func (c *Core) stream2(dst []float64, a, b []fixed.Code) {
	l0, l1 := c.lanes[0], c.lanes[1]
	f0, g20, t20 := &l0.front, &l0.g2, l0.tap2
	f1, g21, t21 := &l1.front, &l1.g2, l1.tap2
	dark, resp, darkPerLane := c.pd.DarkLevel, c.pd.Responsivity, c.darkPerLane
	span := c.spanPerLane * float64(max(c.FullScaleLanes, 1))
	idle := 2 * darkPerLane
	b = b[:len(a)]
	i := 0
	for off := 1; off < len(a); off += 2 {
		d := f0[a[off-1]] * g20[b[off-1]] * t20
		d += f1[a[off]] * g21[b[off]] * t21
		dst[i] = (dark + resp*d - idle) / span * fixed.MaxCode
		i++
	}
	if len(a)%2 == 1 {
		k := len(a) - 1
		d := f0[a[k]] * g20[b[k]] * t20
		dst[i] = (dark + resp*d - darkPerLane) / span * fixed.MaxCode
	}
}
