package datapath

import (
	"fmt"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// Convolution template. §5.4's example reconfiguration: "the datapath
// modules are reconfigured to perform convolutions with kernel size 3×3 on
// ImageNet images" — a convolution is a matrix pass over its im2col windows:
// the kernels are the weight rows, read from DRAM once and reused from the
// local register file (§4's memory controller behaviour), and the windows
// are the batch.

// ConvSpec is a convolution layer's datapath geometry: valid padding,
// square kernel.
type ConvSpec struct {
	InH, InW, InC int
	OutC          int
	K, S          int
}

// OutDims returns the output feature-map dimensions.
func (c ConvSpec) OutDims() (oh, ow int) {
	return (c.InH-c.K)/c.S + 1, (c.InW-c.K)/c.S + 1
}

// Validate checks the geometry.
func (c ConvSpec) Validate() error {
	if c.InH <= 0 || c.InW <= 0 || c.InC <= 0 || c.OutC <= 0 || c.K <= 0 || c.S <= 0 {
		return fmt.Errorf("datapath: conv spec needs positive dimensions: %+v", c)
	}
	if c.K > c.InH || c.K > c.InW {
		return fmt.Errorf("datapath: conv kernel %d exceeds input %dx%d", c.K, c.InH, c.InW)
	}
	return nil
}

// WindowSize is the dot-product length per output element: K·K·InC.
func (c ConvSpec) WindowSize() int { return c.K * c.K * c.InC }

// ConvResult is the output of one convolution layer execution.
type ConvResult struct {
	// Raw holds OutH×OutW×OutC accumulator outputs (C-fastest), after the
	// activation.
	Raw []fixed.Acc
	// Quantized holds the requantized 8-bit activations.
	Quantized  []fixed.Code
	OutH, OutW int
	Stats      LayerStats
	// KernelFetches counts weight reads: exactly OutC with register-file
	// reuse — independent of the output map size.
	KernelFetches uint64
}

// ExecuteConv runs a convolution layer through the photonic pipeline: the
// input feature map is H×W×C codes (C-fastest), kernels[oc] is the flattened
// K×K×InC sign/magnitude kernel for output channel oc. The OutH·OutW windows
// are gathered into one buffer and the layer is one ExecuteFCBiasBatch over
// them — one burst, one preamble and one readout for the whole feature map,
// and the kernel fetched once per output channel whatever the map's size.
// The template's non-linear stage is ReLU or nothing (§5.4).
//
//lint:allow reachability TestConvNoiseOffGolden and TestConvEqualsPerWindowFC pin the conv layer a served CNN will run
func (e *Engine) ExecuteConv(kernels [][]fixed.Signed, input []fixed.Code, spec ConvSpec, act Activation, requantShift uint) (ConvResult, error) {
	var res ConvResult
	if err := spec.Validate(); err != nil {
		return res, err
	}
	if len(kernels) != spec.OutC {
		return res, fmt.Errorf("datapath: %d kernels for %d output channels", len(kernels), spec.OutC)
	}
	win := spec.WindowSize()
	for oc, k := range kernels {
		if len(k) != win {
			return res, fmt.Errorf("datapath: kernel %d has %d weights, want %d", oc, len(k), win)
		}
	}
	if len(input) != spec.InH*spec.InW*spec.InC {
		return res, fmt.Errorf("datapath: input has %d samples, spec wants %d",
			len(input), spec.InH*spec.InW*spec.InC)
	}
	if act != ActIdentity && act != ActReLU {
		return res, fmt.Errorf("datapath: the conv template has no %v stage", act)
	}

	oh, ow := spec.OutDims()
	flat := make([]fixed.Code, oh*ow*win)
	windows := make([][]fixed.Code, oh*ow)
	for p := range windows {
		windows[p] = flat[p*win : (p+1)*win]
		gatherWindow(input, spec, p/ow, p%ow, windows[p])
	}
	batch := e.ExecuteFCBiasBatch(fixed.Matrix(kernels), nil, windows, act, requantShift)

	res.OutH, res.OutW = oh, ow
	res.Stats = batch.Stats
	res.KernelFetches = uint64(spec.OutC)
	// Window p's OutC results are the map's C-fastest elements p·OutC on.
	res.Raw = make([]fixed.Acc, 0, oh*ow*spec.OutC)
	res.Quantized = make([]fixed.Code, 0, oh*ow*spec.OutC)
	for _, r := range batch.PerQuery {
		res.Raw = append(res.Raw, r.Raw...)
		res.Quantized = append(res.Quantized, r.Quantized...)
	}
	return res, nil
}

// gatherWindow copies the im2col window for output position (oy, ox) into
// dst (K×K×InC, matching the kernel layout).
func gatherWindow(input []fixed.Code, spec ConvSpec, oy, ox int, dst []fixed.Code) {
	i := 0
	for ky := 0; ky < spec.K; ky++ {
		iy := oy*spec.S + ky
		rowBase := (iy*spec.InW + ox*spec.S) * spec.InC
		n := spec.K * spec.InC
		copy(dst[i:i+n], input[rowBase:rowBase+n])
		i += n
	}
}

// MaxPool2 applies a 2×2 stride-2 max pool to an H×W×C code map — the
// digital pooling template between convolution layers.
//
//lint:allow reachability TestMaxPool2 and TestSmallCNNThroughDatapath pin the pooling a served CNN will run
func MaxPool2(input []fixed.Code, h, w, c int) (out []fixed.Code, oh, ow int) {
	oh, ow = h/2, w/2
	out = make([]fixed.Code, oh*ow*c)
	at := func(y, x, ch int) fixed.Code { return input[(y*w+x)*c+ch] }
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			for ch := 0; ch < c; ch++ {
				m := at(2*y, 2*x, ch)
				for _, v := range []fixed.Code{at(2*y, 2*x+1, ch), at(2*y+1, 2*x, ch), at(2*y+1, 2*x+1, ch)} {
					if v > m {
						m = v
					}
				}
				out[(y*ow+x)*c+ch] = m
			}
		}
	}
	return out, oh, ow
}
