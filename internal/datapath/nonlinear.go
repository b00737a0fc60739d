package datapath

import (
	"math"

	"github.com/lightning-smartnic/lightning/internal/countaction"
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
func Softmax(xs []fixed.Acc) []fixed.Code {
	if len(xs) == 0 {
		return nil
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	exps := make([]int64, len(xs))
	var total int64
	for i, x := range xs {
		e := int64(expFixed(int32(max) - int32(x)))
		exps[i] = e
		total += e
	}
	out := make([]fixed.Code, len(xs))
	if total == 0 {
		return out
	}
	for i, e := range exps {
		out[i] = fixed.Code((e*255 + total/2) / total)
	}
	return out
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

// NonLinearUnit wraps a non-linear function with its pipeline cost and a
// count-action trigger: the unit fires once per completed vector dot product
// ("Lightning's count-action abstraction triggers the computation of
// non-linear modules based on the count of the number of elements in the
// vector dot product").
type NonLinearUnit struct {
	Module *countaction.Module

	rule   *countaction.Rule
	cycles int
	buf    []fixed.Acc
	outs   [][]fixed.Acc
	apply  func([]fixed.Acc) []fixed.Acc
}

// NewReLUUnit builds a ReLU unit that releases its buffered vector every
// vecLen accumulated elements.
func NewReLUUnit(vecLen int) *NonLinearUnit {
	return newNonLinearUnit("relu", vecLen, CyclesReLU, ReLUVec)
}

// NewIdentityUnit builds a pass-through unit (layers without activation).
func NewIdentityUnit(vecLen int) *NonLinearUnit {
	return newNonLinearUnit("identity", vecLen, 0, func(xs []fixed.Acc) []fixed.Acc { return xs })
}

func newNonLinearUnit(name string, vecLen, cycles int, apply func([]fixed.Acc) []fixed.Acc) *NonLinearUnit {
	u := &NonLinearUnit{
		Module: countaction.NewModule("nonlinear_" + name),
		cycles: cycles,
		apply:  apply,
	}
	u.rule = u.Module.Attach(countaction.New("element-count", countaction.Value(vecLen), func() {
		v := make([]fixed.Acc, len(u.buf))
		copy(v, u.buf)
		u.outs = append(u.outs, u.apply(v))
		u.buf = u.buf[:0]
	}))
	return u
}

// Cycles returns the unit's pipeline latency per activation vector.
func (u *NonLinearUnit) Cycles() int { return u.cycles }

// SetVectorLength retargets the release threshold at runtime.
func (u *NonLinearUnit) SetVectorLength(n int) { u.rule.SetTarget(countaction.Value(n)) }

// Offer feeds one completed dot-product result; when the configured vector
// length has accumulated, the activation function runs and the vector
// becomes available via Take.
func (u *NonLinearUnit) Offer(x fixed.Acc) {
	u.buf = append(u.buf, x)
	u.rule.Add(1)
}

// Take returns the oldest completed activation vector, or nil.
func (u *NonLinearUnit) Take() []fixed.Acc {
	if len(u.outs) == 0 {
		return nil
	}
	v := u.outs[0]
	u.outs = u.outs[1:]
	return v
}

// Reset clears buffered state.
func (u *NonLinearUnit) Reset() {
	u.buf = u.buf[:0]
	u.outs = nil
	u.Module.Reset()
}
