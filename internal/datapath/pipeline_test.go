package datapath

import (
	"math"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

func newTestEngine(t *testing.T, lanes int, noisy bool) *Engine {
	t.Helper()
	var nm *photonic.NoiseModel
	if noisy {
		nm = photonic.CalibratedNoise(11)
	}
	core, err := photonic.NewCore(lanes, nm)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(core, 77)
}

// digitalFC is the reference 8-bit digital implementation of a layer.
func digitalFC(weights fixed.Matrix, x []fixed.Code) []float64 {
	out := make([]float64, len(weights))
	for j, row := range weights {
		var s float64
		for i, w := range row {
			p := float64(w.Mag) * float64(x[i]) / 255
			if w.Neg {
				s -= p
			} else {
				s += p
			}
		}
		out[j] = s
	}
	return out
}

func TestExecuteFCMatchesDigital(t *testing.T) {
	e := newTestEngine(t, 2, false)
	weights := fixed.Matrix{
		{{Mag: 100}, {Mag: 50, Neg: true}, {Mag: 200}, {Mag: 30}},
		{{Mag: 255, Neg: true}, {Mag: 10}, {Mag: 0}, {Mag: 90}},
		{{Mag: 70}, {Mag: 70}, {Mag: 70, Neg: true}, {Mag: 70, Neg: true}},
	}
	x := []fixed.Code{40, 80, 120, 160}
	res := e.ExecuteFC(weights, x, ActIdentity, 0)
	want := digitalFC(weights, x)
	for j := range want {
		if math.Abs(float64(res.Raw[j])-want[j]) > 4 {
			t.Errorf("neuron %d = %d, want %.1f", j, res.Raw[j], want[j])
		}
	}
	if res.Stats.PhotonicSteps == 0 {
		t.Error("no photonic steps recorded")
	}
	if res.Stats.PreambleMisses != 0 {
		t.Errorf("preamble misses = %d", res.Stats.PreambleMisses)
	}
}

func TestExecuteFCReLU(t *testing.T) {
	e := newTestEngine(t, 2, false)
	weights := fixed.Matrix{
		{{Mag: 200, Neg: true}}, // strongly negative output
		{{Mag: 200}},            // strongly positive output
	}
	x := []fixed.Code{250}
	res := e.ExecuteFC(weights, x, ActReLU, 0)
	if res.Raw[0] != 0 {
		t.Errorf("negative neuron after ReLU = %d", res.Raw[0])
	}
	if res.Raw[1] < 150 {
		t.Errorf("positive neuron = %d, want ≈196", res.Raw[1])
	}
	if res.Quantized[1] != fixed.Code(res.Raw[1]) {
		t.Errorf("quantized (shift 0) = %d", res.Quantized[1])
	}
}

func TestExecuteFCSoftmax(t *testing.T) {
	e := newTestEngine(t, 2, false)
	weights := fixed.Matrix{
		{{Mag: 250}},
		{{Mag: 50}},
	}
	res := e.ExecuteFC(weights, []fixed.Code{255}, ActSoftmax, 0)
	if res.Probs == nil {
		t.Fatal("no softmax probabilities")
	}
	if res.Probs[0] <= res.Probs[1] {
		t.Errorf("probs = %v, want class 0 dominant", res.Probs)
	}
}

func TestExecuteFCWithNoiseStaysClose(t *testing.T) {
	e := newTestEngine(t, 2, true)
	weights := make(fixed.Matrix, 4)
	x := make([]fixed.Code, 32)
	for i := range x {
		x[i] = fixed.Code(i * 8)
	}
	for j := range weights {
		weights[j] = make([]fixed.Signed, len(x))
		for i := range weights[j] {
			weights[j][i] = fixed.Signed{Mag: fixed.Code((i*7 + j*13) % 256), Neg: (i+j)%3 == 0}
		}
	}
	res := e.ExecuteFC(weights, x, ActIdentity, 0)
	want := digitalFC(weights, x)
	for j := range want {
		// 16 partials × ~2-code noise each: allow a generous band but
		// require the right magnitude.
		if math.Abs(float64(res.Raw[j])-want[j]) > 40 {
			t.Errorf("noisy neuron %d = %d, want %.1f", j, res.Raw[j], want[j])
		}
	}
}

func TestExecuteFCSparseSkipsZeroProducts(t *testing.T) {
	e := newTestEngine(t, 1, false)
	weights := fixed.Matrix{{{Mag: 0}, {Mag: 100}, {Mag: 0}}}
	x := []fixed.Code{200, 0, 200}
	res := e.ExecuteFC(weights, x, ActIdentity, 0)
	// Every product is zero: no photonic step needed at all.
	if res.Stats.PhotonicSteps != 0 {
		t.Errorf("photonic steps = %d, want 0 (all-zero products)", res.Stats.PhotonicSteps)
	}
	if res.Raw[0] != 0 {
		t.Errorf("output = %d", res.Raw[0])
	}
}

func TestLayerStatsAccounting(t *testing.T) {
	e := newTestEngine(t, 2, false)
	weights := fixed.Matrix{make([]fixed.Signed, 64)}
	for i := range weights[0] {
		weights[0][i] = fixed.Signed{Mag: 128}
	}
	x := make([]fixed.Code, 64)
	for i := range x {
		x[i] = 1
	}
	res := e.ExecuteFC(weights, x, ActIdentity, 0)
	// 64 same-sign elements over 2 lanes → 32 photonic steps.
	if res.Stats.PhotonicSteps != 32 {
		t.Errorf("PhotonicSteps = %d, want 32", res.Stats.PhotonicSteps)
	}
	if res.Stats.DatapathCycles <= PerLayerOverheadCycles {
		t.Error("datapath cycles missing framing cost")
	}
	if res.Stats.TotalCycles() != res.Stats.ComputeCycles+res.Stats.DatapathCycles {
		t.Error("TotalCycles mismatch")
	}
	if res.Stats.Seconds() <= 0 {
		t.Error("Seconds not positive")
	}
	var agg LayerStats
	agg.Add(res.Stats)
	agg.Add(res.Stats)
	if agg.PhotonicSteps != 2*res.Stats.PhotonicSteps {
		t.Error("Add did not accumulate")
	}
}

func TestRequantShiftScalesOutput(t *testing.T) {
	e := newTestEngine(t, 2, false)
	weights := fixed.Matrix{make([]fixed.Signed, 16)}
	for i := range weights[0] {
		weights[0][i] = fixed.Signed{Mag: 255}
	}
	x := make([]fixed.Code, 16)
	for i := range x {
		x[i] = 255
	}
	// Raw ≈ 16×255 = 4080; shift 4 → ≈255.
	res := e.ExecuteFC(weights, x, ActIdentity, 4)
	if res.Quantized[0] < 240 {
		t.Errorf("quantized = %d, want ≈255", res.Quantized[0])
	}
}
