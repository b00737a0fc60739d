package datapath

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// digitalConv is the reference implementation.
func digitalConv(kernels [][]fixed.Signed, input []fixed.Code, spec ConvSpec) []float64 {
	oh, ow := spec.OutDims()
	out := make([]float64, oh*ow*spec.OutC)
	for oc := 0; oc < spec.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float64
				i := 0
				for ky := 0; ky < spec.K; ky++ {
					for kx := 0; kx < spec.K; kx++ {
						for c := 0; c < spec.InC; c++ {
							w := kernels[oc][i]
							x := input[((oy*spec.S+ky)*spec.InW+(ox*spec.S+kx))*spec.InC+c]
							p := float64(w.Mag) * float64(x) / 255
							if w.Neg {
								s -= p
							} else {
								s += p
							}
							i++
						}
					}
				}
				out[(oy*ow+ox)*spec.OutC+oc] = s
			}
		}
	}
	return out
}

func TestExecuteConvMatchesDigital(t *testing.T) {
	e := newTestEngine(t, 2, false)
	spec := ConvSpec{InH: 6, InW: 6, InC: 2, OutC: 3, K: 3, S: 1}
	rng := rand.New(rand.NewPCG(5, 5))
	kernels := make([][]fixed.Signed, spec.OutC)
	for oc := range kernels {
		kernels[oc] = make([]fixed.Signed, spec.WindowSize())
		for i := range kernels[oc] {
			kernels[oc][i] = fixed.Signed{Mag: fixed.Code(rng.IntN(256)), Neg: rng.IntN(2) == 1}
		}
	}
	input := make([]fixed.Code, spec.InH*spec.InW*spec.InC)
	for i := range input {
		input[i] = fixed.Code(rng.IntN(256))
	}
	res, err := e.ExecuteConv(kernels, input, spec, ActIdentity, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := digitalConv(kernels, input, spec)
	if res.OutH != 4 || res.OutW != 4 {
		t.Fatalf("out dims = %dx%d", res.OutH, res.OutW)
	}
	for i := range want {
		if math.Abs(float64(res.Raw[i])-want[i]) > 12 {
			t.Errorf("output %d = %d, want %.1f", i, res.Raw[i], want[i])
		}
	}
	if res.Stats.PhotonicSteps == 0 {
		t.Error("no photonic steps")
	}
}

func TestExecuteConvKernelReuse(t *testing.T) {
	e := newTestEngine(t, 2, false)
	spec := ConvSpec{InH: 10, InW: 10, InC: 1, OutC: 4, K: 3, S: 1}
	kernels := make([][]fixed.Signed, spec.OutC)
	for oc := range kernels {
		kernels[oc] = make([]fixed.Signed, spec.WindowSize())
		for i := range kernels[oc] {
			kernels[oc][i] = fixed.Signed{Mag: 10}
		}
	}
	input := make([]fixed.Code, 100)
	res, err := e.ExecuteConv(kernels, input, spec, ActIdentity, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 8×8 = 64 windows per channel, but only OutC kernel fetches.
	if res.KernelFetches != 4 {
		t.Errorf("kernel fetches = %d, want 4 (register-file reuse)", res.KernelFetches)
	}
}

func TestExecuteConvReLUAndShift(t *testing.T) {
	e := newTestEngine(t, 2, false)
	spec := ConvSpec{InH: 3, InW: 3, InC: 1, OutC: 2, K: 3, S: 1}
	kernels := [][]fixed.Signed{
		make([]fixed.Signed, 9), // all-negative kernel
		make([]fixed.Signed, 9), // all-positive kernel
	}
	for i := 0; i < 9; i++ {
		kernels[0][i] = fixed.Signed{Mag: 200, Neg: true}
		kernels[1][i] = fixed.Signed{Mag: 200}
	}
	input := make([]fixed.Code, 9)
	for i := range input {
		input[i] = 255
	}
	res, err := e.ExecuteConv(kernels, input, spec, ActReLU, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Raw[0] != 0 {
		t.Errorf("negative channel after ReLU = %d", res.Raw[0])
	}
	if res.Raw[1] < 1500 {
		t.Errorf("positive channel = %d, want ≈1800", res.Raw[1])
	}
	if res.Quantized[1] != Requantize(res.Raw[1], 2) {
		t.Error("quantized inconsistent with shift")
	}
}

func TestExecuteConvValidation(t *testing.T) {
	e := newTestEngine(t, 1, false)
	good := ConvSpec{InH: 4, InW: 4, InC: 1, OutC: 1, K: 3, S: 1}
	kernel := [][]fixed.Signed{make([]fixed.Signed, 9)}
	input := make([]fixed.Code, 16)
	if _, err := e.ExecuteConv(kernel, input, ConvSpec{}, ActIdentity, 0); err == nil {
		t.Error("zero spec accepted")
	}
	if _, err := e.ExecuteConv(kernel, input, ConvSpec{InH: 2, InW: 2, InC: 1, OutC: 1, K: 3, S: 1}, ActIdentity, 0); err == nil {
		t.Error("kernel > input accepted")
	}
	if _, err := e.ExecuteConv(nil, input, good, ActIdentity, 0); err == nil {
		t.Error("missing kernels accepted")
	}
	if _, err := e.ExecuteConv([][]fixed.Signed{make([]fixed.Signed, 4)}, input, good, ActIdentity, 0); err == nil {
		t.Error("wrong kernel size accepted")
	}
	if _, err := e.ExecuteConv(kernel, input[:5], good, ActIdentity, 0); err == nil {
		t.Error("wrong input size accepted")
	}
	// The conv template has no softmax stage: charging its cycles and
	// returning raw accumulators as a success is not an answer.
	if _, err := e.ExecuteConv(kernel, input, good, ActSoftmax, 0); err == nil {
		t.Error("softmax accepted")
	}
}

// TestConvEqualsPerWindowFC: a convolution is the FC layer whose rows are the
// kernels, served once per im2col window. Each window through ExecuteFCBias on
// a twin noise-off engine gives the map's OutC elements at that position, bit
// for bit, in the same photonic steps — however the windows are framed into
// bursts.
func TestConvEqualsPerWindowFC(t *testing.T) {
	for _, spec := range goldenConvSpecs {
		kernels, input := goldenConvLayer(spec)
		conv, err := newTestEngine(t, 2, false).ExecuteConv(kernels, input, spec, ActReLU, 3)
		if err != nil {
			t.Fatal(err)
		}
		twin := newTestEngine(t, 2, false)
		window := make([]fixed.Code, spec.WindowSize())
		var steps uint64
		for p := 0; p < conv.OutH*conv.OutW; p++ {
			gatherWindow(input, spec, p/conv.OutW, p%conv.OutW, window)
			fc := twin.ExecuteFCBias(fixed.Matrix(kernels), nil, window, ActReLU, 3)
			steps += fc.Stats.PhotonicSteps
			at := p * spec.OutC
			if !reflect.DeepEqual(conv.Raw[at:at+spec.OutC], fc.Raw) || !reflect.DeepEqual(conv.Quantized[at:at+spec.OutC], fc.Quantized) {
				t.Fatalf("%+v window %d: conv %v / %v, per-window FC %v / %v", spec, p,
					conv.Raw[at:at+spec.OutC], conv.Quantized[at:at+spec.OutC], fc.Raw, fc.Quantized)
			}
		}
		if steps != conv.Stats.PhotonicSteps {
			t.Errorf("%+v: conv took %d photonic steps, its windows one at a time %d", spec, conv.Stats.PhotonicSteps, steps)
		}
	}
}

func TestConvSpecDims(t *testing.T) {
	s := ConvSpec{InH: 227, InW: 227, InC: 3, OutC: 96, K: 11, S: 4}
	oh, ow := s.OutDims()
	if oh != 55 || ow != 55 {
		t.Errorf("AlexNet conv1 dims = %dx%d, want 55x55", oh, ow)
	}
	if s.WindowSize() != 11*11*3 {
		t.Errorf("window = %d", s.WindowSize())
	}
}

func TestMaxPool2(t *testing.T) {
	// 4×4×1 map with increasing values.
	in := make([]fixed.Code, 16)
	for i := range in {
		in[i] = fixed.Code(i)
	}
	out, oh, ow := MaxPool2(in, 4, 4, 1)
	if oh != 2 || ow != 2 {
		t.Fatalf("pooled dims = %dx%d", oh, ow)
	}
	want := []fixed.Code{5, 7, 13, 15}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("pool[%d] = %d, want %d", i, out[i], want[i])
		}
	}
	// Multi-channel pooling keeps channels independent.
	in2 := make([]fixed.Code, 4*4*2)
	for i := 0; i < 16; i++ {
		in2[i*2] = fixed.Code(i)     // channel 0
		in2[i*2+1] = fixed.Code(100) // channel 1 constant
	}
	out2, _, _ := MaxPool2(in2, 4, 4, 2)
	if out2[0] != 5 || out2[1] != 100 {
		t.Errorf("multi-channel pool = %d, %d", out2[0], out2[1])
	}
}

// TestSmallCNNThroughDatapath drives a two-stage conv→pool→fc network
// through the engine end-to-end and checks it against the digital
// reference — the §5.4 scenario of reconfiguring the same datapath
// templates from FC to conv geometry.
func TestSmallCNNThroughDatapath(t *testing.T) {
	e := newTestEngine(t, 2, false)
	rng := rand.New(rand.NewPCG(8, 8))
	spec := ConvSpec{InH: 8, InW: 8, InC: 1, OutC: 2, K: 3, S: 1}
	kernels := make([][]fixed.Signed, spec.OutC)
	for oc := range kernels {
		kernels[oc] = make([]fixed.Signed, spec.WindowSize())
		for i := range kernels[oc] {
			kernels[oc][i] = fixed.Signed{Mag: fixed.Code(rng.IntN(128)), Neg: rng.IntN(3) == 0}
		}
	}
	input := make([]fixed.Code, 64)
	for i := range input {
		input[i] = fixed.Code(rng.IntN(256))
	}
	conv, err := e.ExecuteConv(kernels, input, spec, ActReLU, 3)
	if err != nil {
		t.Fatal(err)
	}
	pooled, ph, pw := MaxPool2(conv.Quantized, conv.OutH, conv.OutW, spec.OutC)
	if ph != 3 || pw != 3 {
		t.Fatalf("pooled dims = %dx%d", ph, pw)
	}
	// FC head over the pooled map.
	fcW := make(fixed.Matrix, 2)
	for j := range fcW {
		fcW[j] = make([]fixed.Signed, len(pooled))
		for i := range fcW[j] {
			fcW[j][i] = fixed.Signed{Mag: fixed.Code(rng.IntN(256)), Neg: j == 1}
		}
	}
	res := e.ExecuteFC(fcW, pooled, ActIdentity, 0)
	want := digitalFC(fcW, pooled)
	for j := range want {
		if math.Abs(float64(res.Raw[j])-want[j]) > 25 {
			t.Errorf("cnn head output %d = %d, want %.1f", j, res.Raw[j], want[j])
		}
	}
}

// BenchmarkConvLayer measures a 3×3 convolution through the full datapath.
func BenchmarkConvLayer(b *testing.B) {
	core, err := photonic.NewCore(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(core, 1)
	spec := ConvSpec{InH: 12, InW: 12, InC: 2, OutC: 4, K: 3, S: 1}
	kernels := make([][]fixed.Signed, spec.OutC)
	for oc := range kernels {
		kernels[oc] = make([]fixed.Signed, spec.WindowSize())
		for i := range kernels[oc] {
			kernels[oc][i] = fixed.Signed{Mag: fixed.Code(i * 13 % 256)}
		}
	}
	input := make([]fixed.Code, spec.InH*spec.InW*spec.InC)
	for i := range input {
		input[i] = fixed.Code(i % 256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteConv(kernels, input, spec, ActReLU, 3); err != nil {
			b.Fatal(err)
		}
	}
}
