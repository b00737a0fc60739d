package photonic

import (
	"math/bits"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// The core's one partials loop. The serve path coalesces the photonic work
// of many queries into one pass: a sequence of operand groups — each group is
// one query's same-sign operand block — streams back to back after a single
// re-bake check. Every group keeps its own tail step, so the analog steps
// (and, with a noise model, the order of the noise draws) are exactly
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
// The tables are brought to the modulators once for the whole call
// (Rebake): this is the batching amortization (N queries × 2 sign groups
// collapse 2N staleness checks into 1). A fault injected between queries
// (the granularity the fault runner operates at) is in the tables by the
// call's first step.
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
	c.Rebake()
	c.pass(dst, a, b, bounds)
	c.noise.addTo(dst)
	c.Steps += uint64(total)
	return dst
}

// PartialsAt is DotPartialsBatchInto's kernel for one operand group, with
// the noise position named instead of taken from the cursor: it writes the
// ⌈len(a)/NumLanes⌉ readings of a·b into dst, with draws ctr, ctr+1, … of
// key's noise stream added — bit for bit what
// DotPartialsBatchInto writes for those steps when SeekNoiseAt(key, ctr) put
// the cursor there. A group cut at a multiple of NumLanes operands and issued
// piecewise at the matching positions reads the same as issued whole.
//
// It only reads the core: the cursor does not move and Steps is not counted,
// so several goroutines may call it at once on disjoint dst while nothing
// else touches the core. The caller counts the steps. It reads the tables
// as they stand, so a caller whose modulators may have moved calls Rebake
// first, before any goroutine reads the core.
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
// several streams with one ReadoutAt a stream. Like PartialsAt it only reads
// the core, tables as they stand: the caller calls Rebake before it.
func (c *Core) ReadingsGroupsInto(dst []float64, a, b []fixed.Code, bounds []int) {
	c.pass(dst, a, b, bounds)
}

// ReadoutAt digitizes noiseless readings at the detector: code i of dst is
// converter.Quantize of readings[i] with draw ctr+i of key's noise stream
// added — bit for bit QuantizeInto of what PartialsAt reads at ctr — in one
// pass that writes no reading back. A noiseless core only rounds. Like
// PartialsAt it only reads the core, so goroutines may call it at once on
// disjoint spans once Rebake has run.
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
// dst, from the tables as they stand. It is the generic kernel — any lane
// count, dead lanes skipped — and pass gives it every core but one of two
// live lanes. A lane's product starts from its front table, carrier·g1[a]·tap1
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

// ReadingsMaskedInto writes the noiseless readings of rows' dot products
// with a batch of activation vectors into dst, read where the operands lie
// rather than from gathered buffers, and returns how many it wrote. a holds
// the rows' weight operands back to back, n a row. Each row's dot with each
// vector, in that order, has two sign groups, in masks after the previous
// dot's, words words each: the g-th group of row r takes the operands
// a[r·n+i] and xs[g/2][i] of the elements i whose bit is set in its words,
// bit i%64 of word i/64. The groups are issued in order, each as
// ReadingsGroupsInto issues a gathered group: its operands go through the
// lanes in element order, NumLanes of them a step, its tail step its own,
// so a group of k takes ⌈k/NumLanes⌉ steps and the readings are
// bit-identical to those of the group gathered. The kernel is picked as pass
// picks: masked2 on two live lanes — masked2Word for rows of at most 64
// elements — and masked on any other core. Like ReadingsGroupsInto it only
// reads the core, tables as they stand: the caller calls Rebake before it.
func (c *Core) ReadingsMaskedInto(dst []float64, a []fixed.Code, n int, xs [][]fixed.Code, masks []uint64, words int) int {
	if words == 0 || len(xs) == 0 {
		return 0
	}
	if l := c.lanes; len(l) == 2 && !l[0].dead && !l[1].dead {
		if words == 1 {
			return c.masked2Word(dst, a, n, xs, masks)
		}
		return c.masked2(dst, a, n, xs, masks, words)
	}
	return c.masked(dst, a, n, xs, masks, words)
}

// masked is stream over masked operands: the same float operations in the
// same order a step, on any lane count, a dead lane's operand taken and its
// product left out. A group's operands are found a set bit at a time.
func (c *Core) masked(dst []float64, a []fixed.Code, n int, xs [][]fixed.Code, masks []uint64, words int) int {
	lanes := len(c.lanes)
	dark, resp, darkPerLane := c.pd.DarkLevel, c.pd.Responsivity, c.darkPerLane
	span := c.spanPerLane * float64(max(c.FullScaleLanes, 1))
	i := 0
	for r := range len(masks) / (2 * len(xs) * words) {
		row := a[r*n : (r+1)*n]
		for _, x := range xs {
			x = x[:n]
			for range 2 {
				t := 0 // operands in the step so far
				var detected float64
				for k, m := range masks[:words] {
					for ; m != 0; m &= m - 1 {
						j := k<<6 | bits.TrailingZeros64(m)
						if l := c.lanes[t]; !l.dead {
							detected += l.front[row[j]] * l.g2[x[j]] * l.tap2
						}
						if t++; t == lanes {
							dst[i] = (dark + resp*detected - float64(lanes)*darkPerLane) / span * fixed.MaxCode
							i, t, detected = i+1, 0, 0
						}
					}
				}
				if t > 0 {
					dst[i] = (dark + resp*detected - float64(t)*darkPerLane) / span * fixed.MaxCode
					i++
				}
				masks = masks[words:]
			}
		}
	}
	return i
}

// masked2 is stream2 over masked operands: a step takes a group's next two
// set bits, the first lane 0's operand and the second lane 1's, with the
// same float operations in the same order as stream2's, and a group whose
// count is odd ends in one single-lane step. It takes a word's operands in
// pairs counted off its popcount, so it branches on where a bit lies no
// more than stream2 branches on a group's length, since the signs and zeros
// of trained layers are a coin flip; a word whose count is odd leaves lane 0
// of a step to the next word's first operand. Rows of one word take
// masked2Word.
func (c *Core) masked2(dst []float64, a []fixed.Code, n int, xs [][]fixed.Code, masks []uint64, words int) int {
	l0, l1 := c.lanes[0], c.lanes[1]
	f0, g20, t20 := &l0.front, &l0.g2, l0.tap2
	f1, g21, t21 := &l1.front, &l1.g2, l1.tap2
	dark, resp, darkPerLane := c.pd.DarkLevel, c.pd.Responsivity, c.darkPerLane
	span := c.spanPerLane * float64(max(c.FullScaleLanes, 1))
	idle := 2 * darkPerLane
	i := 0
	for r := range len(masks) / (2 * len(xs) * words) {
		row := a[r*n : (r+1)*n]
		for _, x := range xs {
			x = x[:n]
			for range 2 {
				var d float64 // lane 0's product of a step whose lane 1 is still to come
				odd := false
				for k, m := range masks[:words] {
					wa, wx := row[k<<6:], x[k<<6:]
					wx = wx[:len(wa)]
					c := bits.OnesCount64(m)
					if odd && c > 0 {
						j := bits.TrailingZeros64(m)
						m &= m - 1
						d += f1[wa[j]] * g21[wx[j]] * t21
						dst[i] = (dark + resp*d - idle) / span * fixed.MaxCode
						i, c, odd = i+1, c-1, false
					}
					for ; c >= 2; c -= 2 {
						j := bits.TrailingZeros64(m)
						m &= m - 1
						p := f0[wa[j]] * g20[wx[j]] * t20
						j = bits.TrailingZeros64(m)
						m &= m - 1
						p += f1[wa[j]] * g21[wx[j]] * t21
						dst[i] = (dark + resp*p - idle) / span * fixed.MaxCode
						i++
					}
					if c == 1 {
						j := bits.TrailingZeros64(m)
						d, odd = f0[wa[j]]*g20[wx[j]]*t20, true
					}
				}
				if odd {
					dst[i] = (dark + resp*d - darkPerLane) / span * fixed.MaxCode
					i++
				}
				masks = masks[words:]
			}
		}
	}
	return i
}

// masked2Word is masked2 for rows of at most 64 elements, whose groups are
// one word each: with no word to carry a step into, a group is its pairs
// and, when its count is odd, its tail step. Measured on the anomaly MLP's
// 16- and 32-wide rows, the carry masked2 keeps costs a third again. A group
// whose bits are one run of consecutive elements, such as the dense
// positive half of a halves row, is read as stream2 reads a gathered group,
// two consecutive operands a step, with no bit to find.
func (c *Core) masked2Word(dst []float64, a []fixed.Code, n int, xs [][]fixed.Code, masks []uint64) int {
	l0, l1 := c.lanes[0], c.lanes[1]
	f0, g20, t20 := &l0.front, &l0.g2, l0.tap2
	f1, g21, t21 := &l1.front, &l1.g2, l1.tap2
	dark, resp, darkPerLane := c.pd.DarkLevel, c.pd.Responsivity, c.darkPerLane
	span := c.spanPerLane * float64(max(c.FullScaleLanes, 1))
	idle := 2 * darkPerLane
	i := 0
	for r := range len(masks) / (2 * len(xs)) {
		row := a[r*n : (r+1)*n]
		for _, x := range xs {
			x = x[:n]
			for _, m := range masks[:2] {
				if m&(m+m&-m) == 0 && m != 0 { // one run
					lo := bits.TrailingZeros64(m)
					ra, rx := row[lo:lo+bits.OnesCount64(m)], x[lo:]
					rx = rx[:len(ra)]
					for k := 1; k < len(ra); k += 2 {
						p := f0[ra[k-1]] * g20[rx[k-1]] * t20
						p += f1[ra[k]] * g21[rx[k]] * t21
						dst[i] = (dark + resp*p - idle) / span * fixed.MaxCode
						i++
					}
					if len(ra)%2 == 1 {
						k := len(ra) - 1
						p := f0[ra[k]] * g20[rx[k]] * t20
						dst[i] = (dark + resp*p - darkPerLane) / span * fixed.MaxCode
						i++
					}
					continue
				}
				for c := bits.OnesCount64(m); c >= 2; c -= 2 {
					j := bits.TrailingZeros64(m)
					m &= m - 1
					p := f0[row[j]] * g20[x[j]] * t20
					j = bits.TrailingZeros64(m)
					m &= m - 1
					p += f1[row[j]] * g21[x[j]] * t21
					dst[i] = (dark + resp*p - idle) / span * fixed.MaxCode
					i++
				}
				if m != 0 {
					j := bits.TrailingZeros64(m)
					p := f0[row[j]] * g20[x[j]] * t20
					dst[i] = (dark + resp*p - darkPerLane) / span * fixed.MaxCode
					i++
				}
			}
			masks = masks[2:]
		}
	}
	return i
}
