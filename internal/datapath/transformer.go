package datapath

import (
	"fmt"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// Transformer block template: multi-head attention over sliced projections,
// a two-layer feed-forward network, and digital residual additions —
// composing the attention, FC, and non-linear templates into the block the
// BERT/GPT-2 simulation models are made of.

// TransformerSpec is the block geometry. D must divide evenly into Heads.
type TransformerSpec struct {
	Seq, D, Heads int
	// FFN is the feed-forward hidden width.
	FFN int
	// Shifts: attention internals, FFN hidden, and block output.
	AttnSpec  AttentionSpec
	FFNShift  uint
	OutShift  uint
	ProjShift uint
}

// Validate checks the geometry.
func (s TransformerSpec) Validate() error {
	if s.Seq <= 0 || s.D <= 0 || s.Heads <= 0 || s.FFN <= 0 {
		return fmt.Errorf("datapath: transformer spec needs positive dims: %+v", s)
	}
	if s.D%s.Heads != 0 {
		return fmt.Errorf("datapath: D=%d not divisible by Heads=%d", s.D, s.Heads)
	}
	return nil
}

// TransformerBlock holds one block's quantized parameters. Projections are
// D×D (heads are slices of the output), FFN matrices are FFN×D and D×FFN.
type TransformerBlock struct {
	Spec       TransformerSpec
	WQ, WK, WV fixed.Matrix
	W1, W2     fixed.Matrix
}

// NewTransformerBlock validates shapes and builds the block.
func NewTransformerBlock(spec TransformerSpec, wq, wk, wv, w1, w2 fixed.Matrix) (*TransformerBlock, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	check := func(name string, w fixed.Matrix, rows, cols int) error {
		if len(w) != rows || len(w[0]) != cols {
			return fmt.Errorf("datapath: %s is %dx%d, want %dx%d", name, len(w), len(w[0]), rows, cols)
		}
		return nil
	}
	for _, c := range []error{
		check("WQ", wq, spec.D, spec.D),
		check("WK", wk, spec.D, spec.D),
		check("WV", wv, spec.D, spec.D),
		check("W1", w1, spec.FFN, spec.D),
		check("W2", w2, spec.D, spec.FFN),
	} {
		if c != nil {
			return nil, c
		}
	}
	return &TransformerBlock{Spec: spec, WQ: wq, WK: wk, WV: wv, W1: w1, W2: w2}, nil
}

// headSlice extracts head h's rows from a D×D projection: rows
// [h·dh, (h+1)·dh) so each head projects into its own dh-wide subspace.
func headSlice(w fixed.Matrix, h, dh int) fixed.Matrix {
	return w[h*dh : (h+1)*dh]
}

// Execute runs the block over Seq×D activation codes: per-head attention on
// sliced projections, head concatenation, residual add, then the FFN with a
// second residual. Residual additions happen digitally on the requantized
// code domain with saturation.
func (b *TransformerBlock) Execute(e *Engine, x []fixed.Code) ([]fixed.Code, LayerStats, error) {
	spec := b.Spec
	var stats LayerStats
	if len(x) != spec.Seq*spec.D {
		return nil, stats, fmt.Errorf("datapath: transformer input has %d codes, want %d", len(x), spec.Seq*spec.D)
	}
	dh := spec.D / spec.Heads

	// Multi-head attention: each head runs the attention template over its
	// projection slice, producing Seq×dh outputs concatenated along D.
	attnOut := make([]fixed.Code, spec.Seq*spec.D)
	for h := 0; h < spec.Heads; h++ {
		hs := AttentionSpec{
			Seq:        spec.Seq,
			D:          dh,
			ScoreShift: spec.AttnSpec.ScoreShift,
			OutShift:   spec.AttnSpec.OutShift,
		}
		// Per-head projections are dh×D matrices; the attention template
		// wants square dh×dh over dh-wide tokens, so project tokens down
		// first: q_t = WQ_h · x_t, a dh-wide FC per token.
		qh := b.projectHead(e, headSlice(b.WQ, h, dh), x, &stats)
		kh := b.projectHead(e, headSlice(b.WK, h, dh), x, &stats)
		vh := b.projectHead(e, headSlice(b.WV, h, dh), x, &stats)
		headRes, err := runHeadAttention(e, qh, kh, vh, hs, &stats)
		if err != nil {
			return nil, stats, err
		}
		for t := 0; t < spec.Seq; t++ {
			copy(attnOut[t*spec.D+h*dh:t*spec.D+(h+1)*dh], headRes[t*dh:(t+1)*dh])
		}
	}
	// Residual 1.
	res1 := addResidual(attnOut, x)

	// FFN per token with residual 2.
	out := make([]fixed.Code, spec.Seq*spec.D)
	for t := 0; t < spec.Seq; t++ {
		tok := res1[t*spec.D : (t+1)*spec.D]
		h1 := e.ExecuteFC(b.W1, tok, ActReLU, spec.FFNShift)
		stats.Add(h1.Stats)
		h2 := e.ExecuteFC(b.W2, h1.Quantized, ActIdentity, spec.OutShift)
		stats.Add(h2.Stats)
		copy(out[t*spec.D:], h2.Quantized)
	}
	return addResidual(out, res1), stats, nil
}

// projectHead applies a dh×D projection to every token.
func (b *TransformerBlock) projectHead(e *Engine, w fixed.Matrix, x []fixed.Code, stats *LayerStats) []fixed.Code {
	spec := b.Spec
	dh := len(w)
	out := make([]fixed.Code, spec.Seq*dh)
	for t := 0; t < spec.Seq; t++ {
		r := e.ExecuteFC(w, x[t*spec.D:(t+1)*spec.D], ActIdentity, spec.ProjShift)
		stats.Add(r.Stats)
		copy(out[t*dh:], r.Quantized)
	}
	return out
}

// runHeadAttention is the score/softmax/weighted-sum core of the attention
// template over pre-projected per-head Q/K/V codes.
func runHeadAttention(e *Engine, q, k, v []fixed.Code, spec AttentionSpec, stats *LayerStats) ([]fixed.Code, error) {
	e.armAdder()
	seq, d := spec.Seq, spec.D
	out := make([]fixed.Code, seq*d)
	signs := make([]fixed.Signed, d)
	probRow := make([]fixed.Signed, seq)
	col := make([]fixed.Code, seq)
	for t := 0; t < seq; t++ {
		for i := 0; i < d; i++ {
			signs[i] = fixed.Signed{Mag: q[t*d+i]}
		}
		row := make([]fixed.Acc, seq)
		for j := 0; j < seq; j++ {
			s := e.runDot(signs, k[j*d:(j+1)*d], stats)
			row[j] = fixed.Acc(int32(s) >> spec.ScoreShift)
		}
		probs := Softmax(row)
		stats.ComputeCycles += CyclesSoftmax
		for j := 0; j < seq; j++ {
			probRow[j] = fixed.Signed{Mag: probs[j]}
		}
		for dd := 0; dd < d; dd++ {
			for j := 0; j < seq; j++ {
				col[j] = v[j*d+dd]
			}
			acc := e.runDot(probRow, col, stats)
			out[t*d+dd] = Requantize(acc, spec.OutShift)
		}
	}
	return out, nil
}

// addResidual adds two code maps with saturation at 255.
func addResidual(a, b []fixed.Code) []fixed.Code {
	out := make([]fixed.Code, len(a))
	for i := range a {
		s := int(a[i]) + int(b[i])
		if s > fixed.MaxCode {
			s = fixed.MaxCode
		}
		out[i] = fixed.Code(s)
	}
	return out
}
