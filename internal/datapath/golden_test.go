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

// goldenNoiseOn pins the engine's noise-on draw order: every accumulator,
// every LayerStats field and the converter/core counters of a 32-32-16-2
// network on the prototype core, at batch 1 and batch 8, recorded on amd64.
// The root golden pins twelve serial response frames and the batch
// differential suite is noiseless by contract, so this file is the only
// thing that holds the batched rng stream (phase draw, leading and trailing
// idle noise, per-step analog noise) still across a datapath refactor. Only
// a deliberate change to the numerics or the noise model re-records it with
// -update-golden.
const goldenNoiseOn = "testdata/engine_noise_on.golden"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenNoiseOn+" from this run")

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

// goldenRun serves q fixed-seed queries through a fresh prototype core and
// engine and renders everything the golden pins as text.
func goldenRun(t *testing.T, q int) string {
	t.Helper()
	core, err := photonic.NewPrototypeCore(7)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(core, 7)
	layers, biases := goldenNet()
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
	var b strings.Builder
	fmt.Fprintf(&b, "batch %d\n", q)
	acts := []Activation{ActReLU, ActReLU, ActSoftmax}
	for l, w := range layers {
		res := e.ExecuteFCBiasBatch(w, biases[l], xs, acts[l], 3)
		fmt.Fprintf(&b, "layer %d stats %+v\n", l, res.Stats)
		for qi, r := range res.PerQuery {
			fmt.Fprintf(&b, "layer %d query %d raw %v\n", l, qi, r.Raw)
			xs[qi] = r.Quantized
		}
	}
	fmt.Fprintf(&b, "adc.quantized %d core.steps %d next.phase %d\n", e.ADC.Quantized, core.Steps, e.ADC.RandomPhase())
	return b.String()
}

func TestEngineNoiseOnGolden(t *testing.T) {
	got := goldenRun(t, 1) + goldenRun(t, 8)
	if again := goldenRun(t, 1) + goldenRun(t, 8); again != got {
		t.Fatal("two fresh engines with the same seeds diverged")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("%s is recorded on amd64; %s may fuse the analog chain's multiply-adds", goldenNoiseOn, runtime.GOARCH)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenNoiseOn, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenNoiseOn)
	if err != nil {
		t.Fatalf("%v (record it with -update-golden)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s holds %d lines, run produced %d", goldenNoiseOn, len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("line %d differs from %s\ngot:  %s\nwant: %s", i+1, goldenNoiseOn, gl[i], wl[i])
		}
	}
}
