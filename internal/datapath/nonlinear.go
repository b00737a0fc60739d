package datapath

import (
	"math"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// Non-linear function units of §5.3. The computation DAG of a DNN layer
// needs more than photonic dot products; ReLU, softmax and friends run in
// the digital domain, pipelined so they only add a few cycles to the last
// dot product of a layer. Cycle costs follow footnote 3: "Our ReLU and
// softmax implementations take one and eight clock cycles, respectively."
const (
	// CyclesReLU is the ReLU unit's pipeline latency.
	CyclesReLU = 1
	// CyclesSoftmax is the softmax unit's pipeline latency.
	CyclesSoftmax = 8
)

// ReLU clamps a 16-bit accumulator word at zero (one clock cycle).
func ReLU(x fixed.Acc) fixed.Acc {
	if x < 0 {
		return 0
	}
	return x
}

// ReLUVec applies ReLU element-wise, in place, and returns xs.
func ReLUVec(xs []fixed.Acc) []fixed.Acc {
	for i, x := range xs {
		xs[i] = ReLU(x)
	}
	return xs
}

// expLUT is the fixed-point exponential lookup table the softmax unit uses:
// entry i holds round(exp(-i/16) * 2^14), covering inputs 0..127 in 1/16
// steps. Hardware softmax subtracts the max first, so only non-positive
// arguments occur.
var expLUT = func() [128]int32 {
	var t [128]int32
	for i := range t {
		t[i] = int32(math.Round(math.Exp(-float64(i)/16.0) * 16384))
	}
	return t
}()

// expFixed returns exp(-d/16) in Q2.14 for a non-negative difference d
// (saturating at the table's end, where the true value is ≈0).
func expFixed(d int32) int32 {
	if d < 0 {
		d = 0
	}
	if d >= int32(len(expLUT)) {
		return 0
	}
	return expLUT[d]
}

// Softmax computes a fixed-point softmax over 16-bit accumulator inputs,
// returning 8-bit probability codes that sum to ≈255. The implementation
// mirrors a hardware unit: find max (adder-tree pass), subtract, exponentiate
// by LUT, normalize by one division — eight pipeline cycles in total.
//
// Inputs are interpreted on a 1/16-per-LSB logit scale, so an input range of
// ±127 spans ±8 natural-log units, enough for 8-bit probability resolution.
//
//lint:allow reachability TestSoftmaxRoundsHalfUpExactly and the other softmax tests pin softmaxInto through it
func Softmax(xs []fixed.Acc) []fixed.Code {
	if len(xs) == 0 {
		return nil
	}
	out := make([]fixed.Code, len(xs))
	softmaxInto(out, xs)
	return out
}

// softmaxInto is Softmax into out, which is as long as xs. The LUT is read
// twice, once for the normalizer and once for each output, so no vector of
// exponentials is kept.
func softmaxInto(out []fixed.Code, xs []fixed.Acc) {
	if len(xs) == 0 {
		return
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	var total int64
	for _, x := range xs {
		total += int64(expFixed(int32(max) - int32(x)))
	}
	out = out[:len(xs)]
	if total == 0 {
		clear(out)
		return
	}
	for i, x := range xs {
		e := int64(expFixed(int32(max) - int32(x)))
		out[i] = fixed.Code((e*255 + total/2) / total)
	}
}

// Argmax returns the index of the largest accumulator value — the
// classification decision the result-generation stage packs into the
// response packet. Ties resolve to the lowest index.
func Argmax(xs []fixed.Acc) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
