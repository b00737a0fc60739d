package datapath

import (
	"slices"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// Activation selects the digital non-linear function applied to a layer's
// dot-product results.
type Activation int

// Supported activations and their pipeline cycle costs (§5.3 footnote 3).
const (
	ActIdentity Activation = iota
	ActReLU
	ActSoftmax
)

// Cycles returns the activation's pipeline latency in digital clock cycles.
func (a Activation) Cycles() int {
	switch a {
	case ActReLU:
		return CyclesReLU
	case ActSoftmax:
		return CyclesSoftmax
	default:
		return 0
	}
}

// String names the activation.
func (a Activation) String() string {
	switch a {
	case ActReLU:
		return "relu"
	case ActSoftmax:
		return "softmax"
	default:
		return "identity"
	}
}

// LayerStats is the cycle accounting for one executed layer, split the way
// Fig 15 splits latency: compute (photonic steps + adders + non-linearity)
// versus datapath (preambles, ADC framing, configuration).
type LayerStats struct {
	// PhotonicSteps is the number of analog time steps performed.
	PhotonicSteps uint64
	// ComputeCycles is the digital-clock cost of compute stages.
	ComputeCycles uint64
	// DatapathCycles is the digital-clock cost of datapath overheads.
	DatapathCycles uint64
	// SaturatedSamples counts payload samples that read MaxCode, the ADC's
	// upper rail. Clipping at the lower rail is not counted: a code-0
	// sample cannot be told apart from a zero partial.
	SaturatedSamples uint64
	// PreambleMisses counts bursts whose preamble did not locate their
	// payload — undetected, or locked where the payload runs off the burst
	// (the exception path that punts to the control plane).
	PreambleMisses uint64
}

// Add accumulates another layer's stats.
func (s *LayerStats) Add(o LayerStats) {
	s.PhotonicSteps += o.PhotonicSteps
	s.ComputeCycles += o.ComputeCycles
	s.DatapathCycles += o.DatapathCycles
	s.SaturatedSamples += o.SaturatedSamples
	s.PreambleMisses += o.PreambleMisses
}

// TotalCycles is the layer's end-to-end digital-clock cost.
func (s LayerStats) TotalCycles() uint64 { return s.ComputeCycles + s.DatapathCycles }

// Seconds converts total cycles to wall time at the prototype clock.
func (s LayerStats) Seconds() float64 {
	return float64(s.TotalCycles()) / converter.DigitalClockHz
}

// Engine executes DNN layers on a photonic core through the full prototype
// datapath: operand streams with preambles through DACs, analog dot-product
// steps, phase-unknown ADC readout, count-action preamble detection,
// cross-cycle sign reassembly, the intra-cycle adder tree, and the
// non-linear unit. It is the software twin of Fig 13's datapath.
type Engine struct {
	Core *photonic.Core
	ADC  *converter.ADC

	// detector owns the preamble configuration; pre is the prefix baked
	// from it that opens every burst (SetPreamble keeps the two in step).
	detector *Detector
	pre      []fixed.Code
	// adder is the one cross-cycle adder-subtractor every layer reassembles
	// through, rearmed at each layer boundary.
	adder   *CrossCycleAdder
	scratch engineScratch
	// bursts counts layer bursts (ExecuteFCBiasBatch calls); with the row
	// index it keys each row's noise stream (noiseKey).
	bursts uint64
}

// NewEngine builds an engine over the given core. seed drives the ADC's
// readout phase and idle noise. The engine configures the core's detector
// full scale to span all wavelength lanes so that multi-wavelength
// accumulations never clip the ADC; the cross-cycle adder re-applies the
// known gain digitally.
func NewEngine(core *photonic.Core, seed uint64) *Engine {
	core.FullScaleLanes = core.NumLanes()
	e := &Engine{
		Core:  core,
		ADC:   converter.NewADC(seed),
		adder: NewCrossCycleAdder(1),
	}
	e.SetPreamble(PrototypePreamble())
	return e
}

// SetPreamble reconfigures the deployment's preamble: the detector and the
// prefix the generator prepends to every burst are rebuilt from the one
// config, so they cannot disagree about where the payload starts.
func (e *Engine) SetPreamble(cfg PreambleConfig) {
	e.detector = NewDetector(cfg)
	e.pre = cfg.Prepend(nil)
}

// armAdder rearms the engine's cross-cycle adder at a layer boundary and
// re-applies the detector full-scale gain the core is configured with.
func (e *Engine) armAdder() {
	e.adder.Reset()
	e.adder.Gain = e.Core.FullScaleLanes
}

// FCResult is the output of one fully-connected layer execution. Its
// vectors are the caller's when ExecuteFCBias or ExecuteFC returned it, and
// the engine's, until its next layer execution, when ExecuteFCBiasBatch did.
type FCResult struct {
	// Raw holds the 16-bit accumulator outputs after the activation.
	Raw []fixed.Acc
	// Quantized holds the 8-bit activation codes after requantization,
	// ready to stream into the next layer.
	Quantized []fixed.Code
	// Probs holds softmax probability codes when the activation was
	// softmax, else nil.
	Probs []fixed.Code
	Stats LayerStats
}

// ExecuteFC runs a fully-connected layer without bias; see ExecuteFCBias.
func (e *Engine) ExecuteFC(weights fixed.Weights, x []fixed.Code, act Activation, requantShift uint) FCResult {
	return e.ExecuteFCBias(weights, nil, x, act, requantShift)
}

// ExecuteFCBias runs a fully-connected layer for one query:
// out[j] = act(Σ_i W[j][i]·x[i] + bias[j]) — ExecuteFCBiasBatch for a batch
// of one, with the pass's cycle accounting attached to the single result.
// The result's vectors are copies, the caller's to keep across calls.
func (e *Engine) ExecuteFCBias(weights fixed.Weights, bias []fixed.Acc, x []fixed.Code, act Activation, requantShift uint) FCResult {
	xs := [1][]fixed.Code{x}
	batch := e.ExecuteFCBiasBatch(weights, bias, xs[:], act, requantShift)
	res := batch.PerQuery[0]
	res.Raw, res.Quantized, res.Probs = slices.Clone(res.Raw), slices.Clone(res.Quantized), slices.Clone(res.Probs)
	res.Stats = batch.Stats
	return res
}

// PerLayerOverheadCycles is the fixed datapath cost per layer measured from
// the prototype: 193 ns at the 253.44 MHz clock (§9, Table 6 footnote 4:
// "this datapath latency covers the time it takes to perform
// Lightning-specific functions like DACs, ADCs, and count-action modules").
const PerLayerOverheadCycles = 49

// Requantize maps a 16-bit accumulator onto an 8-bit activation code by an
// arithmetic right shift with saturation. Negative values clamp to zero:
// activations entering the photonic domain must be non-negative light
// intensities, and every supported activation (ReLU, softmax) is
// non-negative anyway.
func Requantize(x fixed.Acc, shift uint) fixed.Code {
	if x <= 0 {
		return 0
	}
	v := int32(x) >> shift
	if v > fixed.MaxCode {
		return fixed.MaxCode
	}
	return fixed.Code(v)
}

// RequantizeVec applies Requantize element-wise.
func RequantizeVec(xs []fixed.Acc, shift uint) []fixed.Code {
	out := make([]fixed.Code, len(xs))
	requantizeInto(out, xs, shift)
	return out
}

// requantizeInto is RequantizeVec into out, which is as long as xs.
func requantizeInto(out []fixed.Code, xs []fixed.Acc, shift uint) {
	out = out[:len(xs)]
	for i, x := range xs {
		out[i] = Requantize(x, shift)
	}
}
