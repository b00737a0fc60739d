// Package fixed implements the numeric formats used on Lightning's datapath.
//
// Lightning encodes operands as unsigned 8-bit fixed-point codes in [0, 255]
// because light intensity is non-negative (§5.3 of the paper). Signed values
// are handled by splitting a number into a sign bit and an 8-bit magnitude in
// an offline phase; the photonic core multiplies magnitudes and the digital
// cross-cycle adder-subtractor reassembles signs. Accumulation happens in
// 16-bit registers: each 8-bit sample is zero-padded to 16 bits to avoid
// overflow (footnote 1 of the paper).
package fixed

import (
	"fmt"
	"math"
)

// Levels is the number of distinguishable analog levels used by the
// prototype's encoding (§6.2, "we use 256 levels ... to encode unsigned
// fixed-point 8-bit numbers into the light").
const Levels = 256

// MaxCode is the largest 8-bit code. The carrier light's full amplitude is
// defined to represent this code (Fig 14a–b).
const MaxCode = Levels - 1

// Code is an unsigned 8-bit fixed-point sample as carried on a DAC or ADC
// lane. Code 0 maps to zero light intensity and MaxCode to the carrier's
// maximum intensity.
type Code uint8

// Unit returns the code as a normalized intensity in [0, 1].
func (c Code) Unit() float64 { return float64(c) / MaxCode }

// FromUnit quantizes a normalized intensity in [0, 1] to the nearest 8-bit
// code, saturating outside that range.
func FromUnit(x float64) Code {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return MaxCode
	}
	return Code(math.Round(x * MaxCode))
}

// Acc is a 16-bit signed accumulator word as used by the pipeline parallel
// digital adder module (Fig 10: "Each data sample is 16 bits").
type Acc int16

// AccMax and AccMin bound the 16-bit accumulator.
const (
	AccMax = math.MaxInt16
	AccMin = math.MinInt16
)

// SatAdd adds two accumulator words with saturation, matching hardware adder
// behaviour on overflow.
func SatAdd(a, b Acc) Acc {
	s := int32(a) + int32(b)
	switch {
	case s > AccMax:
		return AccMax
	case s < AccMin:
		return AccMin
	}
	return Acc(s)
}

// SatSub subtracts b from a with saturation.
//
//lint:allow reachability TestSatSub, and FuzzAdderDot's per-sample adder subtracts with it
func SatSub(a, b Acc) Acc {
	s := int32(a) - int32(b)
	switch {
	case s > AccMax:
		return AccMax
	case s < AccMin:
		return AccMin
	}
	return Acc(s)
}

// Signed is a sign/magnitude pair: the representation Lightning's offline
// pre-processing produces for DNN parameters (footnote 2: "The signs of
// photonic vector dot products are pre-processed and separated from the
// absolute values of vectors in an offline phase").
type Signed struct {
	// Mag is the 8-bit magnitude fed to the photonic core.
	Mag Code
	// Neg is true when the original value is negative. It becomes the
	// control signal of a cross-cycle adder-subtractor lane.
	Neg bool
}

// SplitSigned quantizes a real value in [-1, 1] into sign/magnitude form,
// saturating outside that range.
func SplitSigned(x float64) Signed {
	if x < 0 {
		return Signed{Mag: FromUnit(-x), Neg: true}
	}
	return Signed{Mag: FromUnit(x)}
}

// Scale describes an affine quantization scale mapping real weights onto the
// 8-bit magnitude range: code = round(|x| / Max * 255). A Scale is computed
// per tensor so that the largest-magnitude element uses the full range, the
// standard symmetric per-tensor 8-bit scheme the paper's 8-bit quantized
// models use (§6.3, §7).
type Scale struct {
	// Max is the largest absolute real value representable; code 255 maps
	// to it. A zero Max denotes an all-zero tensor.
	Max float64
}

// ScaleFor computes the symmetric quantization scale for a tensor.
func ScaleFor(xs []float64) Scale {
	var m float64
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return Scale{Max: m}
}

// Quantize maps a real value onto sign/magnitude codes under the scale.
func (sc Scale) Quantize(x float64) Signed {
	if sc.Max == 0 {
		return Signed{}
	}
	return SplitSigned(x / sc.Max)
}

// String implements fmt.Stringer for diagnostics.
func (s Signed) String() string {
	if s.Neg {
		return fmt.Sprintf("-%d/255", uint8(s.Mag))
	}
	return fmt.Sprintf("+%d/255", uint8(s.Mag))
}
