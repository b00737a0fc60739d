package datapath

import (
	"fmt"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// Attention template. §4 lists attention layers among the datapath templates
// the DAG configuration loader can select. A single-head self-attention
// block decomposes entirely into operations the datapath already has:
//
//   - Q/K/V projections: fully-connected layers (weights × activations).
//   - Score matrix Q·Kᵀ: photonic dot products of two *dynamic* operand
//     streams — the photonic core multiplies whatever voltages arrive, so
//     activation×activation products need no new hardware.
//   - Row-wise softmax: the digital non-linear unit.
//   - Weighted value sum: photonic dot products of probabilities × values.
//
// Everything is unsigned 8-bit on the analog side; Q/K/V activations are
// requantized to codes between stages like any other layer boundary.

// AttentionSpec is the template geometry: Seq tokens of dimension D with a
// single head (multi-head runs the template once per head on sliced
// projections).
type AttentionSpec struct {
	Seq, D int
	// ScoreShift requantizes Q·Kᵀ scores onto the softmax input scale.
	ScoreShift uint
	// OutShift requantizes the attention output activations.
	OutShift uint
}

// Validate checks the geometry.
func (a AttentionSpec) Validate() error {
	if a.Seq <= 0 || a.D <= 0 {
		return fmt.Errorf("datapath: attention spec needs positive Seq and D: %+v", a)
	}
	return nil
}

// AttentionResult is one executed attention block.
type AttentionResult struct {
	// Out holds Seq×D output activation codes (token-major).
	Out []fixed.Code
	// Probs holds the Seq×Seq attention probability codes, for
	// inspection.
	Probs []fixed.Code
	Stats LayerStats
}

// ExecuteAttention runs single-head self-attention over Seq tokens of
// dimension D. wq, wk, wv are D×D sign/magnitude projection matrices
// (row-major: weights[out][in]); x holds Seq×D input activation codes.
// projShift requantizes the Q/K/V projections.
func (e *Engine) ExecuteAttention(wq, wk, wv fixed.Matrix, x []fixed.Code, spec AttentionSpec, projShift uint) (AttentionResult, error) {
	var res AttentionResult
	if err := spec.Validate(); err != nil {
		return res, err
	}
	if len(x) != spec.Seq*spec.D {
		return res, fmt.Errorf("datapath: attention input has %d codes, want %d", len(x), spec.Seq*spec.D)
	}
	for name, w := range map[string]fixed.Matrix{"wq": wq, "wk": wk, "wv": wv} {
		if len(w) != spec.D {
			return res, fmt.Errorf("datapath: %s has %d rows, want %d", name, len(w), spec.D)
		}
	}

	token := func(m []fixed.Code, t int) []fixed.Code { return m[t*spec.D : (t+1)*spec.D] }

	// Q/K/V projections: one FC execution per token per matrix.
	project := func(w fixed.Matrix) []fixed.Code {
		out := make([]fixed.Code, spec.Seq*spec.D)
		for t := 0; t < spec.Seq; t++ {
			r := e.ExecuteFC(w, token(x, t), ActIdentity, projShift)
			res.Stats.Add(r.Stats)
			copy(out[t*spec.D:], r.Quantized)
		}
		return out
	}
	q := project(wq)
	k := project(wk)
	v := project(wv)

	// Score matrix: photonic dot products of dynamic Q and K streams.
	e.armAdder()
	scores := make([]fixed.Acc, spec.Seq*spec.Seq)
	signs := make([]fixed.Signed, spec.D)
	for ti := 0; ti < spec.Seq; ti++ {
		qi := token(q, ti)
		for i, c := range qi {
			signs[i] = fixed.Signed{Mag: c} // activations are non-negative
		}
		for tj := 0; tj < spec.Seq; tj++ {
			scores[ti*spec.Seq+tj] = e.runDot(signs, token(k, tj), &res.Stats)
		}
	}

	// Row-wise softmax in the digital non-linear unit.
	res.Probs = make([]fixed.Code, spec.Seq*spec.Seq)
	for t := 0; t < spec.Seq; t++ {
		row := make([]fixed.Acc, spec.Seq)
		for j := range row {
			row[j] = fixed.Acc(int32(scores[t*spec.Seq+j]) >> spec.ScoreShift)
		}
		copy(res.Probs[t*spec.Seq:], Softmax(row))
		res.Stats.ComputeCycles += CyclesSoftmax
	}

	// Output: probability-weighted sum of V, again photonic products of
	// two dynamic streams (probabilities × values), one dot product per
	// output element.
	res.Out = make([]fixed.Code, spec.Seq*spec.D)
	probRow := make([]fixed.Signed, spec.Seq)
	col := make([]fixed.Code, spec.Seq)
	for t := 0; t < spec.Seq; t++ {
		for j := 0; j < spec.Seq; j++ {
			probRow[j] = fixed.Signed{Mag: res.Probs[t*spec.Seq+j]}
		}
		for d := 0; d < spec.D; d++ {
			for j := 0; j < spec.Seq; j++ {
				col[j] = v[j*spec.D+d]
			}
			acc := e.runDot(probRow, col, &res.Stats)
			res.Out[t*spec.D+d] = Requantize(acc, spec.OutShift)
		}
	}
	return res, nil
}
