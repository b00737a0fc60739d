package datapath

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// The engine's noise-on goldens: a 32-32-16-2 network on the prototype core,
// at batch 1 and batch 8, recorded on amd64, split by what a change to how
// partials are framed into bursts may move.
//
// goldenNoiseOn is burst-invariant: every accumulator, the photonic step,
// compute cycle, saturated sample and preamble miss counts per layer, and the
// core's step counter. It holds the core's per-step analog noise stream and
// the payload quantisation still. The root golden pins twelve serial response
// frames and the batch differential suite is noiseless by contract, so this
// file is the only thing that does so for a batch; only a deliberate change
// to the numerics or the noise model re-records it.
//
// goldenBurst is burst-dependent: DatapathCycles per layer (the frames read),
// the ADC's sample counter and its next phase draw (the ADC rng stream: phase,
// leading and trailing idle noise). A change to how many bursts a layer emits
// re-records this file and only this file. A change to the core's noise
// moves it too, from the second layer on: the noisy accumulators decide
// which activations requantize to zero, and the sparse skip sets how many
// samples the next layer's burst holds. Its first layer's line does not
// move.
//
// goldenConv is the convolution template's noise-off numerics: Raw, Quantized,
// the output dimensions, PhotonicSteps and KernelFetches for three geometries
// under identity and ReLU. DatapathCycles and ComputeCycles are deliberately
// not in it: how windows are framed into bursts moves them, and may.
const (
	goldenNoiseOn = "testdata/engine_noise_on.golden"
	goldenBurst   = "testdata/engine_noise_on_burst.golden"
	goldenConv    = "testdata/conv_noise_off.golden"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files the tests that run replay, from this run")

// goldenNet is a fixed-seed 32-32-16-2 network: coin-flip signs, one weight
// in eight zero and two in eight at full scale (so some samples clip at the
// ADC rail), a small bias per neuron.
func goldenNet() (layers []fixed.Matrix, biases [][]fixed.Acc) {
	rng := rand.New(rand.NewPCG(0x601d, 17))
	dims := []int{32, 32, 16, 2}
	for l := 0; l+1 < len(dims); l++ {
		m := make(fixed.Matrix, dims[l+1])
		b := make([]fixed.Acc, dims[l+1])
		for j := range m {
			m[j] = make([]fixed.Signed, dims[l])
			for i := range m[j] {
				switch rng.IntN(8) {
				case 0:
				case 1, 2:
					m[j][i] = fixed.Signed{Mag: fixed.MaxCode, Neg: rng.IntN(2) == 1}
				default:
					m[j][i] = fixed.Signed{Mag: fixed.Code(rng.IntN(256)), Neg: rng.IntN(2) == 1}
				}
			}
			b[j] = fixed.Acc(rng.IntN(81) - 40)
		}
		layers, biases = append(layers, m), append(biases, b)
	}
	return layers, biases
}

// goldenQueries draws the goldens' q fixed-seed 32-wide queries: one code in
// six dark and two in six at full scale.
func goldenQueries(q int) [][]fixed.Code {
	rng := rand.New(rand.NewPCG(0xbeef, uint64(q)))
	xs := make([][]fixed.Code, q)
	for qi := range xs {
		xs[qi] = make([]fixed.Code, 32)
		for i := range xs[qi] {
			switch rng.IntN(6) {
			case 0:
			case 1, 2:
				xs[qi][i] = fixed.MaxCode
			default:
				xs[qi][i] = fixed.Code(rng.IntN(256))
			}
		}
	}
	return xs
}

// goldenRun serves q fixed-seed queries through a fresh prototype core and
// engine and renders what each golden pins as text.
func goldenRun(t *testing.T, q int) (invariant, burst string) {
	t.Helper()
	core, err := photonic.NewPrototypeCore(7)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(core, 7)
	layers, biases := goldenNet()
	xs := goldenQueries(q)
	var inv, bur strings.Builder
	fmt.Fprintf(&inv, "batch %d\n", q)
	fmt.Fprintf(&bur, "batch %d\n", q)
	acts := []Activation{ActReLU, ActReLU, ActSoftmax}
	quantized := uint64(0)
	for l, w := range layers {
		res := e.ExecuteFCBiasBatch(w, biases[l], xs, acts[l], 3)
		st := res.Stats
		quantized += digitized(e, st)
		fmt.Fprintf(&inv, "layer %d PhotonicSteps:%d ComputeCycles:%d SaturatedSamples:%d PreambleMisses:%d\n",
			l, st.PhotonicSteps, st.ComputeCycles, st.SaturatedSamples, st.PreambleMisses)
		fmt.Fprintf(&bur, "layer %d DatapathCycles:%d\n", l, st.DatapathCycles)
		for qi, r := range res.PerQuery {
			fmt.Fprintf(&inv, "layer %d query %d raw %v\n", l, qi, r.Raw)
			xs[qi] = r.Quantized
		}
	}
	fmt.Fprintf(&inv, "core.steps %d\n", core.Steps)
	fmt.Fprintf(&bur, "adc.quantized %d next.phase %d\n", quantized, e.ADC.RandomPhase())
	return inv.String(), bur.String()
}

// digitized is how many samples the ADC quantized for a layer e ran with
// stats st: the preamble prefix and a sample a photonic step, or nothing
// when the layer had no live product and opened no burst.
func digitized(e *Engine, st LayerStats) uint64 {
	if st.PhotonicSteps == 0 {
		return 0
	}
	return uint64(len(e.pre)) + st.PhotonicSteps
}

func TestEngineNoiseOnGolden(t *testing.T) {
	run := func() [2]string {
		i1, b1 := goldenRun(t, 1)
		i8, b8 := goldenRun(t, 8)
		return [2]string{i1 + i8, b1 + b8}
	}
	got := run()
	if run() != got {
		t.Fatal("two fresh engines with the same seeds diverged")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("the goldens are recorded on amd64; %s may fuse the analog chain's multiply-adds", runtime.GOARCH)
	}
	for i, path := range [2]string{goldenNoiseOn, goldenBurst} {
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got[i]), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		replayGolden(t, path, got[i])
	}
}

// replayGolden holds got to the golden file at path line by line.
func replayGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update-golden)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s holds %d lines, run produced %d", path, len(wl), len(gl))
	}
	for j := range gl {
		if gl[j] != wl[j] {
			t.Errorf("line %d differs from %s\ngot:  %s\nwant: %s", j+1, path, gl[j], wl[j])
		}
	}
}

// goldenConvLayer draws a fixed-seed convolution layer for spec: coin-flip
// kernel signs, one weight in eight zero and one in eight at full scale, and
// an input map with one sample in six dark and one in six at full scale.
func goldenConvLayer(spec ConvSpec) (kernels [][]fixed.Signed, input []fixed.Code) {
	rng := rand.New(rand.NewPCG(0xc0117, uint64(spec.InH*spec.InW*spec.OutC)))
	kernels = make([][]fixed.Signed, spec.OutC)
	for oc := range kernels {
		kernels[oc] = make([]fixed.Signed, spec.WindowSize())
		for i := range kernels[oc] {
			switch rng.IntN(8) {
			case 0:
			case 1:
				kernels[oc][i] = fixed.Signed{Mag: fixed.MaxCode, Neg: rng.IntN(2) == 1}
			default:
				kernels[oc][i] = fixed.Signed{Mag: fixed.Code(rng.IntN(256)), Neg: rng.IntN(2) == 1}
			}
		}
	}
	input = make([]fixed.Code, spec.InH*spec.InW*spec.InC)
	for i := range input {
		switch rng.IntN(6) {
		case 0:
		case 1:
			input[i] = fixed.MaxCode
		default:
			input[i] = fixed.Code(rng.IntN(256))
		}
	}
	return kernels, input
}

// goldenConvSpecs are the geometries goldenConv pins: the unit tests' 6×6,
// BenchmarkConvLayer's 12×12, and a non-square map at stride 2.
var goldenConvSpecs = []ConvSpec{
	{InH: 6, InW: 6, InC: 2, OutC: 3, K: 3, S: 1},
	{InH: 12, InW: 12, InC: 2, OutC: 4, K: 3, S: 1},
	{InH: 9, InW: 11, InC: 3, OutC: 5, K: 3, S: 2},
}

func TestConvNoiseOffGolden(t *testing.T) {
	var got strings.Builder
	for _, spec := range goldenConvSpecs {
		kernels, input := goldenConvLayer(spec)
		for _, act := range []Activation{ActIdentity, ActReLU} {
			res, err := newTestEngine(t, 2, false).ExecuteConv(kernels, input, spec, act, 3)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "conv %dx%dx%d->%d k%d s%d %v OutH:%d OutW:%d PhotonicSteps:%d KernelFetches:%d\n",
				spec.InH, spec.InW, spec.InC, spec.OutC, spec.K, spec.S, act,
				res.OutH, res.OutW, res.Stats.PhotonicSteps, res.KernelFetches)
			fmt.Fprintf(&got, "raw %v\nquantized %v\n", res.Raw, res.Quantized)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenConv, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	replayGolden(t, goldenConv, got.String())
}

// TestRowOrderIndependentNoise: with the prototype noise on, issuing a
// layer's rows in reverse order, each a span of its own, gives every row's payload codes in the burst
// — each (row, query) segment as the ADC quantized it — byte-identical to
// forward order, on the golden net at batch 1 and 8. Each row draws from its
// own keyed stream, so no row's noise depends on which rows went before.
func TestRowOrderIndependentNoise(t *testing.T) {
	layers, biases := goldenNet()
	acts := []Activation{ActReLU, ActReLU, ActSoftmax}
	// rowPartials issues layer l's rows in the given order on a fresh engine
	// whose burst count stands where a served network's would at layer l.
	rowPartials := func(w fixed.Matrix, l int, xs [][]fixed.Code, order []int) [][]fixed.Code {
		core, err := photonic.NewPrototypeCore(7)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(core, 7)
		e.bursts = uint64(l) + 1
		e.scratch.beginLayer()
		e.armAdder()
		parts := make([][]fixed.Code, len(w))
		var stats LayerStats
		p := packedView(t, w...)
		for _, j := range order {
			at := len(e.scratch.stream)
			e.issueRows(p, j, j+1, xs, &stats)
			if at == 0 { // the row that opened the burst: skip the phase and preamble
				at = e.scratch.phase + len(e.pre)
			}
			parts[j] = append([]fixed.Code(nil), e.scratch.stream[min(at, len(e.scratch.stream)):]...)
		}
		return parts
	}
	for _, q := range []int{1, 8} {
		core, err := photonic.NewPrototypeCore(7)
		if err != nil {
			t.Fatal(err)
		}
		served := NewEngine(core, 7)
		xs := goldenQueries(q)
		for l, w := range layers {
			fwd := make([]int, len(w))
			rev := make([]int, len(w))
			for j := range fwd {
				fwd[j], rev[len(w)-1-j] = j, j
			}
			want, got := rowPartials(w, l, xs, fwd), rowPartials(w, l, xs, rev)
			for j := range want {
				if len(got[j]) != len(want[j]) {
					t.Fatalf("batch %d layer %d row %d: %d partials in reverse order, %d forward", q, l, j, len(got[j]), len(want[j]))
				}
				for i := range want[j] {
					if got[j][i] != want[j][i] {
						t.Fatalf("batch %d layer %d row %d sample %d: %v in reverse order, %v forward", q, l, j, i, got[j][i], want[j][i])
					}
				}
			}
			res := served.ExecuteFCBiasBatch(w, biases[l], xs, acts[l], 3)
			for qi, r := range res.PerQuery {
				xs[qi] = r.Quantized
			}
		}
	}
}
