package datapath

import (
	"math/bits"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/countaction"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// This file implements the pipeline parallel digital adder module of §5.3
// and Fig 10: a cross-cycle adder-subtractor that accumulates the
// non-negative photonic partial results with their pre-separated signs, and
// an intra-cycle adder tree that folds the 16 parallel lanes into a single
// dot-product value once the whole vector has been accumulated (Listing 3).
//
// The hardware accumulates one ADC readout cycle per clock. The emulation
// computes the same lanes a dot at a time, in closed form. The engine
// streams a dot's positive sign group before its negative one, so every
// lane sees all its additions before any subtraction, and every increment
// min(s·gain, AccMax) is non-negative. A saturating running sum of such a
// sequence can pin the upper rail only while it rises and the lower rail
// only while it falls, so it ends where one clamp of each plain sum does:
//
//	lane = max(AccMin, min(AccMax, Σ⁺) − Σ⁻)
//
// bit for bit what a saturating add or subtract per sample leaves, at
// either rail included. One clamp of Σ⁺ − Σ⁻ would not be: Σ⁺ = 40 000 and
// Σ⁻ = 10 000 leave the lane at 22 767, not 30 000.

// Lanes is the adder parallelism: one adder-subtractor per ADC sample lane.
const Lanes = converter.SamplesPerCycle

// CrossCycleAdder is the 16-lane cross-cycle adder-subtractor. Lane k
// accumulates samples k, k+Lanes, … of a dot product, adding or subtracting
// according to the sample's sign. A count-action rule counts accumulated
// samples; its target — vector_length / num_accumulation_wavelengths,
// i.e. the number of photonic partials per dot product — triggers the
// intra-cycle adder stage.
type CrossCycleAdder struct {
	Module *countaction.Module

	// Gain is the constant multiplier re-applying the detector's
	// full-scale division: when the photonic core accumulates over N
	// wavelengths at an N-lane ADC full scale, every sample carries 1/N
	// of the true partial and the adder multiplies by N. Zero means 1.
	Gain int

	rule *countaction.Rule
}

// NewCrossCycleAdder builds the adder. partialsPerDot configures the
// count-action target: how many photonic partial results make up one full
// dot product (Listing 3's vector_length / num_accumulation_wavelengths).
func NewCrossCycleAdder(partialsPerDot int) *CrossCycleAdder {
	a := &CrossCycleAdder{Module: countaction.NewModule("cross_cycle_adder_subtractor")}
	a.rule = a.Module.Attach(countaction.New("sum-valid", countaction.Value(partialsPerDot), nil))
	return a
}

// SetPartialsPerDot retargets the rule at runtime (DAG reconfiguration for a
// different layer geometry).
func (a *CrossCycleAdder) SetPartialsPerDot(n int) {
	a.rule.SetTarget(countaction.Value(n))
}

// Dot accumulates one dot product's preamble-aligned payload segment into
// the 16 lanes (see lanes) and folds them through the intra-cycle tree. It
// returns the dot, the tree's latency in cycles, and how many samples read
// MaxCode. The count-action rule counts the segment's samples in one
// evaluation; retargeted to the segment's length, as the engine does, it
// ends the dot at count zero with one more fire, as a rule counting a cycle
// at a time would. An empty segment is no dot: it touches neither the rule
// nor the tree.
func (a *CrossCycleAdder) Dot(seg []fixed.Code, pos int) (sum fixed.Acc, treeCycles, saturated int) {
	if pos < 0 || pos > len(seg) {
		panic("datapath: sign boundary outside the segment")
	}
	if len(seg) == 0 {
		return 0, 0, 0
	}
	a.rule.Add(countaction.Value(len(seg)))
	lanes, saturated := a.lanes(seg, pos)
	sum, treeCycles = TreeSumInPlace(lanes[:])
	return sum, treeCycles, saturated
}

// reassemble is Dot for every dot of a layer, in one walk of its count
// table: dot i takes the next table[i].parts samples of payload, the first
// table[i].pos of them under a positive sign, and its sum goes to out[i]. It
// returns the compute cycles the dots charge — a cycle a readout of Lanes
// samples, and the tree's for a dot that is not empty — and how many of the
// payload's samples read MaxCode: counted once, by Dot for the dots it sums
// and a readout cycle at a time over the runs closedRun takes.
//
// A dot whose samples sum to at most AccMax at the gain even when every one
// reads MaxCode reaches no rail: no sample clamps, and every lane and every
// sum in the tree is bounded by the sum of all its samples. Its sum is
// gain·(Σ⁺ − Σ⁻), and the walk takes runs of such dots in that closed form
// (closedRun). Any other dot goes through Dot, retargeted to its length. The rule ends as a Dot a dot, each
// retargeted to its segment's length as the engine did, leaves it: one fire
// a non-empty dot, the count at zero, the target the last dot's length.
func (a *CrossCycleAdder) reassemble(out []fixed.Acc, payload []fixed.Code, table []dotCount) (cycles, saturated uint64) {
	var readouts, live uint64
	for _, c := range table {
		readouts += uint64((c.parts + Lanes - 1) / Lanes)
		live += uint64(b2i(c.parts > 0))
	}
	gain := int64(max(a.Gain, 1))
	short := int(fixed.AccMax / (fixed.MaxCode * gain)) // the longest segment the closed form takes
	fires := live
	for i := 0; ; i++ {
		k, rest := closedRun(out[i:], payload, table[i:], short, gain)
		saturated += maxCodes(payload[:len(payload)-len(rest)])
		i, payload = i+k, rest
		if i == len(table) {
			break
		}
		c := table[i]
		a.SetPartialsPerDot(c.parts)
		var sat int
		out[i], _, sat = a.Dot(payload[:c.parts], c.pos) // which fires the rule itself
		saturated += uint64(sat)
		fires--
		payload = payload[c.parts:]
	}
	a.rule.Fire(fires)
	if len(table) > 0 {
		a.SetPartialsPerDot(table[len(table)-1].parts)
	}
	return readouts + live*uint64(TreeCycles(Lanes)), saturated
}

// closedRun sums table's dots in closed form, each from the next parts
// samples of payload into out, until one is longer than short. It returns
// how many it summed and the payload past them. It is kept out of line:
// with no call in its loop the walk's values stay in registers, where
// inlined beside reassemble's call to Dot they were spilled around it on
// every dot.
//
//go:noinline
func closedRun(out []fixed.Acc, payload []fixed.Code, table []dotCount, short int, gain int64) (int, []fixed.Code) {
	for i, c := range table {
		if c.parts > short {
			return i, payload
		}
		var sum int64 // Σ⁺ − Σ⁻
		if c.parts <= Lanes && len(payload) >= Lanes {
			// One readout cycle: two words, masked to the segment and to
			// its positive head, summed with no branch.
			in, head := &headBytes[c.parts], &headBytes[c.pos]
			w0, w1 := octet(payload[0:8:8])&in[0], octet(payload[8:16:16])&in[1]
			sum = 2*byteSum(w0&head[0], w1&head[1]) - byteSum(w0, w1)
		} else {
			seg := payload[:c.parts]
			for _, s := range seg[:c.pos] {
				sum += int64(s)
			}
			for _, s := range seg[c.pos:] {
				sum -= int64(s)
			}
		}
		out[i] = fixed.Acc(gain * sum)
		payload = payload[c.parts:]
	}
	return len(table), payload
}

// headBytes[k] masks the first k bytes of two words that hold a readout
// cycle's codes, the first in the low byte of the first word.
var headBytes = func() (m [Lanes + 1][2]uint64) {
	for k := range m {
		for b := 0; b < k; b++ {
			m[k][b/8] |= 0xff << (8 * (b % 8))
		}
	}
	return m
}()

// byteSum adds the sixteen bytes of w0 and w1: as 16-bit fields, four sums
// of at most four bytes each, which one multiply gathers into the top field.
func byteSum(w0, w1 uint64) int64 {
	const evens, fields = 0x00ff00ff00ff00ff, 0x0001000100010001
	t := w0&evens + w0>>8&evens + w1&evens + w1>>8&evens
	return int64(t * fields >> 48)
}

// maxCodes counts the samples of s that read MaxCode, a readout cycle at a
// time.
func maxCodes(s []fixed.Code) uint64 {
	n := 0
	for ; len(s) >= Lanes; s = s[Lanes:] {
		n += maxBytes(octet(s[0:8:8]), octet(s[8:16:16]))
	}
	for _, c := range s {
		n += b2i(c == fixed.MaxCode)
	}
	return uint64(n)
}

// lanes computes the 16 per-lane partial sums a segment leaves in the
// cross-cycle adder ("stream cross_cycle_adder_subtractor[i].data") and
// counts its MaxCode samples. Samples are 8-bit codes zero-padded to 16
// bits; sample i streams on lane i mod Lanes, added if i < pos and
// subtracted otherwise; pos splits seg (Dot checks it).
func (a *CrossCycleAdder) lanes(seg []fixed.Code, pos int) (lanes [Lanes]fixed.Acc, saturated int) {
	gain := int64(max(a.Gain, 1))
	if len(seg) <= Lanes {
		// One sample a lane: nothing to sum, nothing to saturate.
		for i, s := range seg {
			v := fixed.Acc(min(int64(s)*gain, fixed.AccMax))
			if i >= pos {
				v = -v
			}
			lanes[i] = v
			saturated += b2i(s == fixed.MaxCode)
		}
		return lanes, saturated
	}
	// Lane sums in units of scale: codes where no sample can clamp,
	// clamped samples where one can.
	var plus, minus [Lanes]int64
	scale := gain
	if gain*fixed.MaxCode <= fixed.AccMax {
		saturated = codeSums(&plus, seg[:pos], 0) + codeSums(&minus, seg[pos:], pos)
	} else {
		scale = 1
		saturated = clampedSums(&plus, seg[:pos], 0, gain) + clampedSums(&minus, seg[pos:], pos, gain)
	}
	for k := range lanes {
		lanes[k] = fixed.Acc(max(fixed.AccMin, min(fixed.AccMax, plus[k]*scale)-minus[k]*scale))
	}
	return lanes, saturated
}

// Reset clears the rule's count and fires.
func (a *CrossCycleAdder) Reset() { a.Module.Reset() }

// flushCycles is how many cycles of codes a 16-bit field holds:
// 256·MaxCode < 2^16.
const flushCycles = 256

// codeSums adds each code of seg onto the lane it streams on — seg[j] is
// the dot's sample first+j — and returns how many read MaxCode. Whole
// cycles go as two 64-bit words, each split into its even and its odd
// bytes as four 16-bit fields, flushed into dst every flushCycles cycles.
func codeSums(dst *[Lanes]int64, seg []fixed.Code, first int) (maxed int) {
	const evens = 0x00ff00ff00ff00ff
	head := min(-first&(Lanes-1), len(seg)) // samples before the first cycle edge
	for j, s := range seg[:head] {
		dst[(first+j)&(Lanes-1)] += int64(s)
		maxed += b2i(s == fixed.MaxCode)
	}
	body := seg[head:]
	for len(body) >= Lanes {
		n := min(len(body)/Lanes, flushCycles) * Lanes
		var e0, o0, e1, o1 uint64
		for c := body[:n]; len(c) >= Lanes; c = c[Lanes:] {
			w0, w1 := octet(c[:8:8]), octet(c[8:16:16])
			e0 += w0 & evens
			o0 += w0 >> 8 & evens
			e1 += w1 & evens
			o1 += w1 >> 8 & evens
			maxed += maxBytes(w0, w1)
		}
		for f := 0; f < 4; f++ {
			sh := uint(16 * f)
			dst[2*f] += int64(e0 >> sh & 0xffff)
			dst[2*f+1] += int64(o0 >> sh & 0xffff)
			dst[8+2*f] += int64(e1 >> sh & 0xffff)
			dst[9+2*f] += int64(o1 >> sh & 0xffff)
		}
		body = body[n:]
	}
	for k, s := range body {
		dst[k&(Lanes-1)] += int64(s)
		maxed += b2i(s == fixed.MaxCode)
	}
	return maxed
}

// clampedSums is codeSums for a gain at which a sample can exceed AccMax:
// each sample adds min(s·gain, AccMax).
func clampedSums(dst *[Lanes]int64, seg []fixed.Code, first int, gain int64) (maxed int) {
	for j, s := range seg {
		dst[(first+j)&(Lanes-1)] += min(int64(s)*gain, fixed.AccMax)
		maxed += b2i(s == fixed.MaxCode)
	}
	return maxed
}

// maxBytes counts the bytes of w0 and w1 that read 0xff, exactly: in ^w
// such a byte is zero, and a byte's top bit survives
// ((x&0x7f…)+0x7f…)|x only if the byte is non-zero.
func maxBytes(w0, w1 uint64) int {
	const low7 = 0x7f7f7f7f7f7f7f7f
	x0, x1 := ^w0, ^w1
	z0 := ^((x0&low7 + low7) | x0 | low7) // 0x80 in each byte of w0 that reads 0xff
	z1 := ^((x1&low7 + low7) | x1 | low7)
	return bits.OnesCount64(z0 | z1>>7)
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TreeSumInPlace folds lane partial sums into one value with a binary adder
// tree, inside work (which it clobbers: Dot hands it the dot's own lane
// array), and returns the result together with the
// pipeline latency in clock cycles: log2(k) for k inputs ("The intra-cycle
// adder requires log k clock cycles, where k is the number of parallel data
// samples in each ADC readout").
func TreeSumInPlace(work []fixed.Acc) (sum fixed.Acc, cycles int) {
	if len(work) == 0 {
		return 0, 0
	}
	for n := len(work); n > 1; cycles++ {
		m := 0
		for i := 0; i < n; i += 2 {
			if i+1 < n {
				work[m] = fixed.SatAdd(work[i], work[i+1])
			} else {
				work[m] = work[i]
			}
			m++
		}
		n = m
	}
	return work[0], cycles
}

// TreeCycles returns the intra-cycle adder latency for k parallel samples
// without performing a sum: ceil(log2(k)).
func TreeCycles(k int) int {
	if k <= 1 {
		return 0
	}
	return bits.Len(uint(k - 1))
}
