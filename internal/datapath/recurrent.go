package datapath

import (
	"fmt"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// Recurrent template (§4 lists "recurrent layers" among the datapath
// templates). An Elman-style RNN cell is two photonic matrix products per
// time step plus a digital add and activation:
//
//	h_t = act(Wx·x_t + Wh·h_{t-1} + b)
//
// The input projection streams Wx against the incoming token; the recurrent
// projection streams Wh against the previous hidden state, which lives in
// SRAM as 8-bit activation codes like any other layer boundary.

// RNNSpec is the template geometry.
type RNNSpec struct {
	// In is the input token width, Hidden the state width.
	In, Hidden int
	// Shift requantizes the hidden state each step.
	Shift uint
	Act   Activation
}

// Validate checks the geometry.
func (r RNNSpec) Validate() error {
	if r.In <= 0 || r.Hidden <= 0 {
		return fmt.Errorf("datapath: rnn spec needs positive In/Hidden: %+v", r)
	}
	return nil
}

// RNNCell holds the cell's quantized parameters and hidden state.
type RNNCell struct {
	Spec   RNNSpec
	Wx, Wh fixed.Matrix
	Bias   []fixed.Acc

	h []fixed.Code
	// Steps counts processed tokens.
	Steps uint64
}

// NewRNNCell builds a cell. Wx is Hidden×In, Wh is Hidden×Hidden.
func NewRNNCell(spec RNNSpec, wx, wh fixed.Matrix, bias []fixed.Acc) (*RNNCell, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(wx) != spec.Hidden || len(wx[0]) != spec.In {
		return nil, fmt.Errorf("datapath: Wx is %dx%d, want %dx%d", len(wx), len(wx[0]), spec.Hidden, spec.In)
	}
	if len(wh) != spec.Hidden || len(wh[0]) != spec.Hidden {
		return nil, fmt.Errorf("datapath: Wh is %dx%d, want %dx%d", len(wh), len(wh[0]), spec.Hidden, spec.Hidden)
	}
	return &RNNCell{Spec: spec, Wx: wx, Wh: wh, Bias: bias, h: make([]fixed.Code, spec.Hidden)}, nil
}

// Hidden returns the current hidden-state codes.
func (c *RNNCell) Hidden() []fixed.Code { return c.h }

// Reset zeroes the hidden state.
func (c *RNNCell) Reset() {
	c.h = make([]fixed.Code, c.Spec.Hidden)
	c.Steps = 0
}

// Step processes one input token through the engine and returns the new
// hidden state, plus the step's cycle accounting.
func (c *RNNCell) Step(e *Engine, x []fixed.Code) ([]fixed.Code, LayerStats, error) {
	if len(x) != c.Spec.In {
		return nil, LayerStats{}, fmt.Errorf("datapath: rnn token has %d codes, want %d", len(x), c.Spec.In)
	}
	// Input projection with bias.
	rx := e.ExecuteFCBias(c.Wx, c.Bias, x, ActIdentity, 0)
	// Recurrent projection against the stored state.
	rh := e.ExecuteFC(c.Wh, c.h, ActIdentity, 0)
	stats := rx.Stats
	stats.Add(rh.Stats)

	// Digital combine + activation + requantize.
	combined := make([]fixed.Acc, c.Spec.Hidden)
	for j := range combined {
		combined[j] = fixed.SatAdd(rx.Raw[j], rh.Raw[j])
	}
	switch c.Spec.Act {
	case ActReLU:
		combined = ReLUVec(combined)
		stats.ComputeCycles += CyclesReLU
	case ActSoftmax:
		stats.ComputeCycles += CyclesSoftmax
	}
	c.h = RequantizeVec(combined, c.Spec.Shift)
	c.Steps++
	return c.h, stats, nil
}

// RunSequence folds a token sequence through the cell, returning the final
// hidden state and the aggregate stats.
func (c *RNNCell) RunSequence(e *Engine, tokens [][]fixed.Code) ([]fixed.Code, LayerStats, error) {
	var agg LayerStats
	for i, tok := range tokens {
		_, st, err := c.Step(e, tok)
		if err != nil {
			return nil, agg, fmt.Errorf("token %d: %w", i, err)
		}
		agg.Add(st)
	}
	return c.h, agg, nil
}
