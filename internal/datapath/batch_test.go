package datapath

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// batchLayer builds a deterministic layer (weights, bias) and q input
// vectors of width in, mixing signs, zeros and saturating magnitudes.
func batchLayer(out, in, q int) (weights fixed.Matrix, bias []fixed.Acc, xs [][]fixed.Code) {
	weights = make([][]fixed.Signed, out)
	for j := range weights {
		weights[j] = make([]fixed.Signed, in)
		for i := range weights[j] {
			weights[j][i] = fixed.Signed{
				Mag: fixed.Code((i*7 + j*31) % 256),
				Neg: (i+j)%3 == 0,
			}
		}
	}
	bias = make([]fixed.Acc, out)
	for j := range bias {
		bias[j] = fixed.Acc((j%5 - 2) * 40)
	}
	xs = make([][]fixed.Code, q)
	for qi := range xs {
		xs[qi] = make([]fixed.Code, in)
		for i := range xs[qi] {
			xs[qi][i] = fixed.Code((i*13 + qi*57 + 5) % 256)
		}
	}
	return weights, bias, xs
}

// TestExecuteFCBiasBatchMatchesSerialNoiseless is the datapath half of the
// batch/serial equivalence contract: on an ideal channel, one matrix-matrix
// pass over Q queries produces bit-identical per-query outputs to Q serial
// ExecuteFCBias calls on a fresh engine, for every activation and batch
// size. Noiseless results are a pure function of (weights, input) — the ADC
// phase and idle-noise draws never reach payload samples — so rng stream
// divergence between the two schedules cannot show through.
func TestExecuteFCBiasBatchMatchesSerialNoiseless(t *testing.T) {
	for _, act := range []Activation{ActIdentity, ActReLU, ActSoftmax} {
		for _, q := range []int{1, 2, 3, 5, 8} {
			t.Run(fmt.Sprintf("act%d/batch%d", act, q), func(t *testing.T) {
				weights, bias, xs := batchLayer(6, 37, q)

				be := newTestEngine(t, 2, false)
				got := be.ExecuteFCBiasBatch(weights, bias, xs, act, 2)
				if len(got.PerQuery) != q {
					t.Fatalf("batch returned %d results for %d queries", len(got.PerQuery), q)
				}

				var serialSteps uint64
				for qi, x := range xs {
					se := newTestEngine(t, 2, false)
					want := se.ExecuteFCBias(weights, bias, x, act, 2)
					serialSteps += want.Stats.PhotonicSteps
					g := got.PerQuery[qi]
					if !reflect.DeepEqual(g.Raw, want.Raw) {
						t.Fatalf("query %d Raw diverged:\nbatch  %v\nserial %v", qi, g.Raw, want.Raw)
					}
					if !reflect.DeepEqual(g.Quantized, want.Quantized) {
						t.Fatalf("query %d Quantized diverged:\nbatch  %v\nserial %v", qi, g.Quantized, want.Quantized)
					}
					if !reflect.DeepEqual(g.Probs, want.Probs) {
						t.Fatalf("query %d Probs diverged:\nbatch  %v\nserial %v", qi, g.Probs, want.Probs)
					}
				}
				// The analog work is conserved: batching amortizes framing and
				// detection, never photonic steps.
				if got.Stats.PhotonicSteps != serialSteps {
					t.Fatalf("batch PhotonicSteps = %d, serial total = %d", got.Stats.PhotonicSteps, serialSteps)
				}
				if got.Stats.PreambleMisses != 0 {
					t.Fatalf("preamble misses = %d", got.Stats.PreambleMisses)
				}
			})
		}
	}
}

// TestRunDotBatchAllZeroProducts: queries whose products are all zero take
// no analog step and read back zero (the sparse skip) — including when only
// some queries in the batch are all-zero.
func TestRunDotBatchAllZeroProducts(t *testing.T) {
	e := newTestEngine(t, 2, false)
	weights := fixed.Matrix{{{Mag: 0}, {Mag: 100}, {Mag: 0}}}
	xs := [][]fixed.Code{
		{200, 0, 200}, // all products zero
		{0, 50, 0},    // one live product
		{1, 0, 9},     // all products zero again
	}
	res := e.ExecuteFCBiasBatch(weights, nil, xs, ActIdentity, 0)
	if res.PerQuery[0].Raw[0] != 0 || res.PerQuery[2].Raw[0] != 0 {
		t.Errorf("all-zero queries produced %d, %d; want 0, 0",
			res.PerQuery[0].Raw[0], res.PerQuery[2].Raw[0])
	}
	if res.PerQuery[1].Raw[0] == 0 {
		t.Error("live query read back zero")
	}

	// A batch where EVERY query is all-zero must skip the burst entirely.
	e2 := newTestEngine(t, 2, false)
	res2 := e2.ExecuteFCBiasBatch(weights, nil, [][]fixed.Code{{200, 0, 200}, {7, 0, 7}}, ActIdentity, 0)
	if res2.Stats.PhotonicSteps != 0 {
		t.Errorf("photonic steps = %d, want 0 (all-zero batch)", res2.Stats.PhotonicSteps)
	}
}

// TestLayerLUTDecisionSeesFaultBetweenLayers: the engine re-bakes the core's
// tables once a layer, so a fault landing between two layers must be seen by
// the second. A modulator bias moved after a layer makes the next layer read
// the bytes of a twin that was faulted from the start, and differ from a
// healthy twin's; a relock between layers makes it read what a relocked twin
// reads. Tables kept from an earlier layer would serve the moved bias from
// the bake before it, which reads what a healthy core reads.
func TestLayerLUTDecisionSeesFaultBetweenLayers(t *testing.T) {
	weights, bias, xs := batchLayer(4, 64, 2)
	// layer serves the layer and returns what it read: every accumulator
	// and the burst's samples.
	layer := func(e *Engine) string {
		res := e.ExecuteFCBiasBatch(weights, bias, xs, ActIdentity, 2)
		var b strings.Builder
		for _, r := range res.PerQuery {
			fmt.Fprintln(&b, r.Raw)
		}
		frames := int(res.Stats.DatapathCycles) - PerLayerOverheadCycles
		fmt.Fprintln(&b, e.scratch.stream[:frames*converter.SamplesPerCycle])
		return b.String()
	}
	fault := func(e *Engine) { e.Core.Lanes()[0].Mod1.Bias += 0.3 }
	relock := func(e *Engine) {
		if err := e.Core.Relock(); err != nil {
			t.Fatal(err)
		}
	}
	e, stale, healthy := newTestEngine(t, 2, true), newTestEngine(t, 2, true), newTestEngine(t, 2, true)
	fault(stale)
	for _, c := range []*Engine{e, stale, healthy} {
		layer(c)
	}

	fault(e)
	got, want, clean := layer(e), layer(stale), layer(healthy)
	if got != want {
		t.Fatalf("the layer after a fault read\n%s\nthe twin faulted from the start\n%s", got, want)
	}
	if got == clean {
		t.Fatal("the fault does not change what the layer reads: the tables masked it")
	}

	relock(e)
	relock(stale)
	if got, want = layer(e), layer(stale); got != want {
		t.Fatalf("after a relock the layer read\n%s\nthe relocked twin\n%s", got, want)
	}
}
