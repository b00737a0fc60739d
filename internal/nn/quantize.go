package nn

import (
	"math"
	"math/bits"

	"github.com/lightning-smartnic/lightning/internal/dataset"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// QuantizedLayer is one fully-connected layer in the datapath's numeric
// format: sign/magnitude 8-bit weights, a bias in raw accumulator units
// (added digitally after the intra-cycle adder tree), and the requantization
// shift mapping 16-bit accumulators back to 8-bit activations.
type QuantizedLayer struct {
	Weights fixed.Matrix
	Bias    []fixed.Acc
	Shift   uint
	// Final marks the output layer (softmax instead of ReLU).
	Final bool
	// WScale is the weight tensor's symmetric quantization scale.
	WScale fixed.Scale
}

// QuantizedNetwork is a trained network converted to Lightning's 8-bit
// datapath format, with per-layer requantization calibrated on sample data
// — the artifact the DAG configuration loader programs into the datapath.
type QuantizedNetwork struct {
	Sizes  []int
	Layers []QuantizedLayer
}

// Quantize converts a trained float network into datapath format,
// calibrating each layer's requantization shift so the observed maximum
// pre-activation on the calibration set lands near full scale.
func Quantize(n *Network, calib *dataset.Set) *QuantizedNetwork {
	q := &QuantizedNetwork{Sizes: n.Sizes}
	for l := range n.W {
		flat := make([]float64, 0, len(n.W[l])*len(n.W[l][0]))
		for _, row := range n.W[l] {
			flat = append(flat, row...)
		}
		sc := fixed.ScaleFor(flat)
		ql := QuantizedLayer{
			Weights: make(fixed.Matrix, len(n.W[l])),
			Bias:    make([]fixed.Acc, len(n.B[l])),
			Final:   l == len(n.W)-1,
			WScale:  sc,
		}
		for j, row := range n.W[l] {
			ql.Weights[j] = make([]fixed.Signed, len(row))
			for i, w := range row {
				ql.Weights[j][i] = sc.Quantize(w)
			}
		}
		q.Layers = append(q.Layers, ql)
	}

	// Calibrate shifts and raw-unit biases layer by layer: the raw unit of
	// layer l depends on all upstream shifts, so layers are fixed in order.
	// inScale[l] is the real value one input code LSB of layer l denotes.
	inScale := 1.0 / 255 // layer-0 inputs are [0,1] images/features
	samples := calibSamples(calib)
	for l := range q.Layers {
		ql := &q.Layers[l]
		// Raw accumulator r = Σ ±mag·x/255; one raw LSB denotes
		// wScale/255 · inScale·255 = wScale·inScale real units... work it
		// through: real z = Σ W·x_real = Σ (ŵ·ws)(x·inScale) =
		// ws·inScale·255·(r'/255) where r' = Σ ŵ255·x/255 = r.
		rawLSB := ql.WScale.Max * inScale
		if rawLSB == 0 {
			rawLSB = 1.0 / 255
		}
		for j, b := range n.B[l] {
			ql.Bias[j] = clampAcc(math.Round(b / rawLSB))
		}
		// Find the maximum post-bias, post-ReLU raw magnitude across the
		// calibration inputs.
		var maxRaw int64 = 1
		outs := make([][]fixed.Code, len(samples))
		rawOuts := make([][]int64, len(samples))
		for si, x := range samples {
			raw := rawFC(ql.Weights, x, ql.Bias)
			rawOuts[si] = raw
			for _, r := range raw {
				if r > maxRaw {
					maxRaw = r
				}
			}
		}
		ql.Shift = shiftFor(maxRaw)
		// Produce the next layer's calibration inputs.
		if !ql.Final {
			for si := range samples {
				outs[si] = requantInt(rawOuts[si], ql.Shift)
			}
			samples = outs
			inScale = inScale * ql.WScale.Max * math.Pow(2, float64(ql.Shift))
		}
	}
	return q
}

// calibSamples extracts up to 256 calibration inputs.
func calibSamples(set *dataset.Set) [][]fixed.Code {
	n := len(set.Examples)
	if n > 256 {
		n = 256
	}
	out := make([][]fixed.Code, n)
	for i := 0; i < n; i++ {
		out[i] = set.Examples[i].X
	}
	return out
}

// rawFC computes a layer's raw accumulator outputs in wide precision: the
// digital-reference equivalent of the photonic pipeline (Σ ±mag·x/255 plus
// raw-unit bias, ReLU for hidden layers applied by the caller).
func rawFC(weights [][]fixed.Signed, x []fixed.Code, bias []fixed.Acc) []int64 {
	out := make([]int64, len(weights))
	for j, row := range weights {
		var s int64
		for i, w := range row {
			p := int64(w.Mag) * int64(x[i])
			if w.Neg {
				s -= p
			} else {
				s += p
			}
		}
		out[j] = s/255 + int64(bias[j])
	}
	return out
}

func requantInt(raw []int64, shift uint) []fixed.Code {
	out := make([]fixed.Code, len(raw))
	for j, r := range raw {
		if r <= 0 {
			continue
		}
		v := r >> shift
		if v > fixed.MaxCode {
			v = fixed.MaxCode
		}
		out[j] = fixed.Code(v)
	}
	return out
}

// shiftFor picks the smallest shift mapping maxRaw into the 8-bit range.
func shiftFor(maxRaw int64) uint {
	if maxRaw <= fixed.MaxCode {
		return 0
	}
	return uint(bits.Len64(uint64(maxRaw / 256)))
}

func clampAcc(v float64) fixed.Acc {
	if v > fixed.AccMax {
		return fixed.AccMax
	}
	if v < fixed.AccMin {
		return fixed.AccMin
	}
	return fixed.Acc(v)
}

// Infer runs the 8-bit digital reference inference (the "GPU at 8-bit
// precision" comparator of §6.3) and returns the predicted class and the
// final layer's raw logits.
func (q *QuantizedNetwork) Infer(x []fixed.Code) (int, []int64) {
	act := x
	var raw []int64
	for l := range q.Layers {
		ql := &q.Layers[l]
		raw = rawFC(ql.Weights, act, ql.Bias)
		if !ql.Final {
			act = requantInt(raw, ql.Shift)
		}
	}
	best := 0
	for j, r := range raw {
		if r > raw[best] {
			best = j
		}
	}
	return best, raw
}

// Accuracy evaluates the quantized digital reference on a dataset.
func (q *QuantizedNetwork) Accuracy(set *dataset.Set) float64 {
	if len(set.Examples) == 0 {
		return 0
	}
	correct := 0
	for i := range set.Examples {
		class, _ := q.Infer(set.Examples[i].X)
		if class == set.Examples[i].Label {
			correct++
		}
	}
	return float64(correct) / float64(len(set.Examples))
}
