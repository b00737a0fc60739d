package datapath

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/model"
	"github.com/lightning-smartnic/lightning/internal/sim"
)

// refereeLayer draws fixed-seed weights for an out × in layer: coin-flip
// signs, one magnitude in eight zero.
func refereeLayer(rng *rand.Rand, out, in int) fixed.Matrix {
	m := make(fixed.Matrix, out)
	for j := range m {
		m[j] = make([]fixed.Signed, in)
		for i := range m[j] {
			if rng.IntN(8) != 0 {
				m[j][i] = fixed.Signed{Mag: fixed.Code(1 + rng.IntN(255)), Neg: rng.IntN(2) == 1}
			}
		}
	}
	return m
}

// readsOneBurst holds the layer e just executed to the referee's first
// clause: DatapathCycles is the fixed overhead plus the frames of one burst —
// the phase drawn, one preamble, one sample per photonic step — and the
// preamble located its payload.
func readsOneBurst(t *testing.T, layer string, e *Engine, st LayerStats) {
	t.Helper()
	preamble := PrototypePreamble().Samples()
	samples := e.scratch.phase + preamble + int(st.PhotonicSteps)
	want := PerLayerOverheadCycles + (samples+converter.SamplesPerCycle-1)/converter.SamplesPerCycle
	if int(st.DatapathCycles) != want {
		t.Errorf("%s: DatapathCycles %d, want %d + ⌈(%d + %d + %d)/%d⌉ = %d", layer,
			st.DatapathCycles, PerLayerOverheadCycles, e.scratch.phase, preamble, st.PhotonicSteps, converter.SamplesPerCycle, want)
	}
	if st.PreambleMisses != 0 {
		t.Errorf("%s: %d preamble misses", layer, st.PreambleMisses)
	}
}

// TestEngineClockAgreesWithPrototypeLatency is the referee between the
// repo's two models of the prototype: the engine that serves queries and
// sim.PrototypeLatency, which EXPERIMENTS.md's Fig 4/15 and Table 6 are
// generated from. The testbed geometries run through the engine (synthetic
// fixed-seed weights, noise off) and, on the one set of clock constants in
// internal/converter:
//
//   - every layer — and a convolution is one layer — reads exactly its fixed
//     overhead plus the frames of one burst — phase, one preamble, one sample
//     per photonic step — and a layer with no live product reads the overhead
//     alone and draws nothing;
//   - the fixed overhead is sim's Datapath term (Fig 15c: 193 ns a layer,
//     constant in layer width) to within 1 ns a layer;
//   - the photonic steps take no longer than sim's Compute term. sim charges
//     every MAC; the engine skips zero products, which more than pays for
//     the tail step sign grouping can add to a row.
//
// What the two still disagree on is logged, not asserted — it is the number
// the next model PR has to explain: the burst's frames (the preamble counted
// beside the 49 cycles, and payload frames that in hardware overlap the
// photonic steps they digitize) and ComputeCycles, which the engine still
// charges serially per neuron.
func TestEngineClockAgreesWithPrototypeLatency(t *testing.T) {
	for _, m := range model.PrototypeModels() {
		e := newTestEngine(t, sim.PrototypeLanes, false)
		rng := rand.New(rand.NewPCG(0x2efe2ee, uint64(len(m.Layers))))
		x := make([]fixed.Code, m.Layers[0].In)
		for i := range x {
			x[i] = fixed.Code(rng.IntN(256))
		}
		var total LayerStats
		for li, l := range m.Layers {
			if l.Kind != model.FullyConnected {
				t.Fatalf("%s layer %d is %v; the testbed models are fully connected", m.Name, li, l.Kind)
			}
			act := map[model.Act]Activation{model.ReLU: ActReLU, model.Softmax: ActSoftmax}[l.Act]
			res := e.ExecuteFCBias(refereeLayer(rng, l.Out, l.In), nil, x, act, 3)
			st := res.Stats
			if st.PhotonicSteps == 0 {
				t.Fatalf("%s layer %d issued no photonic step; the referee wants live layers", m.Name, li)
			}
			readsOneBurst(t, fmt.Sprintf("%s layer %d", m.Name, li), e, st)
			total.Add(st)
			x = res.Quantized
		}

		ref := sim.PrototypeLatency(m)
		layers := m.SequentialLayers()
		if layers != len(m.Layers) {
			t.Fatalf("%s: %d sequential layers, %d executed", m.Name, layers, len(m.Layers))
		}
		fixedNS := float64(layers*PerLayerOverheadCycles) / converter.DigitalClockHz * 1e9
		if d := math.Abs(fixedNS - float64(ref.Datapath.Nanoseconds())); d > float64(layers) {
			t.Errorf("%s: %d layers × %d cycles = %.1f ns, sim datapath %v: apart by more than 1 ns a layer",
				m.Name, layers, PerLayerOverheadCycles, fixedNS, ref.Datapath)
		}
		stepNS := float64(total.PhotonicSteps) / converter.SampleRateHz * 1e9
		if stepNS > float64(ref.Compute.Nanoseconds()) {
			t.Errorf("%s: %d photonic steps take %.1f ns, more than sim's compute %v", m.Name, total.PhotonicSteps, stepNS, ref.Compute)
		}
		burst := int(total.DatapathCycles) - layers*PerLayerOverheadCycles
		t.Logf("%s: fixed %.0f ns = sim %v; steps %.0f ns ≤ sim %v; residual the next model PR explains: %d burst frames (%.0f ns, %d of them preamble) + %d compute cycles (%.0f ns) beside sim's end-to-end %v",
			m.Name, fixedNS, ref.Datapath, stepNS, ref.Compute,
			burst, float64(burst)/converter.DigitalClockHz*1e9, layers*PrototypePreamble().Repetitions,
			total.ComputeCycles, float64(total.ComputeCycles)/converter.DigitalClockHz*1e9, ref.EndToEnd())
	}

	// A convolution is one layer on the same clock: one burst for the whole
	// feature map, not one a window and channel.
	spec := goldenConvSpecs[1]
	kernels, input := goldenConvLayer(spec)
	ce := newTestEngine(t, sim.PrototypeLanes, false)
	conv, err := ce.ExecuteConv(kernels, input, spec, ActReLU, 3)
	if err != nil {
		t.Fatal(err)
	}
	readsOneBurst(t, "conv 12x12x2->4", ce, conv.Stats)

	// No live product, no burst: the overhead alone, and the ADC's rng is
	// where a twin that never ran the layer has it.
	e, twin := newTestEngine(t, 2, false), newTestEngine(t, 2, false)
	dead := e.ExecuteFCBias(fixed.Matrix{{{Mag: 9}, {}}, {{}, {Mag: 9, Neg: true}}}, nil, []fixed.Code{0, 0}, ActReLU, 0)
	if dead.Stats.DatapathCycles != PerLayerOverheadCycles || cap(e.scratch.stream) != 0 {
		t.Errorf("dead layer read %d cycles and digitized into a %d-sample stream; want %d and none", dead.Stats.DatapathCycles, cap(e.scratch.stream), PerLayerOverheadCycles)
	}
	if got, want := e.ADC.RandomPhase(), twin.ADC.RandomPhase(); got != want {
		t.Errorf("dead layer advanced the ADC's rng: next phase %d, twin's %d", got, want)
	}
}
