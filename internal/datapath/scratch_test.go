package datapath

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// TestRunDotBatchZeroSteadyStateAllocs guards the engine's per-neuron hot
// path, for a lone query and for a full batch: once the scratch has grown to
// the layer geometry × batch size (one warm-up call), a dot product through
// the full analog+digital pipeline — sign partition, DAC burst, ADC framing,
// preamble detection, cross-cycle reassembly, adder tree — must not allocate.
func TestRunDotBatchZeroSteadyStateAllocs(t *testing.T) {
	for _, q := range []int{1, 8} {
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			e := newTestEngine(t, 2, true)
			const in = 64
			w := make([]fixed.Signed, in)
			for i := range w {
				w[i] = fixed.Signed{Mag: fixed.Code(i*3 + 1), Neg: i%3 == 0}
			}
			xs := make([][]fixed.Code, q)
			for qi := range xs {
				xs[qi] = make([]fixed.Code, in)
				for i := range xs[qi] {
					xs[qi][i] = fixed.Code((255 - i - qi*5) % 256)
				}
			}
			e.armAdder()
			out := make([]fixed.Acc, q)
			var stats LayerStats
			row, _ := fixed.PackRow(w, nil)
			e.runDotBatch(row, xs, out, &stats) // warm-up: grows scratch
			if n := testing.AllocsPerRun(100, func() {
				e.runDotBatch(row, xs, out, &stats)
			}); n != 0 {
				t.Fatalf("runDotBatch allocates %v times per call in steady state, want 0", n)
			}
			if q == 1 {
				// The batch-of-one adapter the layer templates call must not
				// add any either.
				var sink fixed.Acc
				if n := testing.AllocsPerRun(100, func() {
					sink += e.runDot(w, xs[0], &stats)
				}); n != 0 {
					t.Fatalf("runDot allocates %v times per call in steady state, want 0", n)
				}
				_ = sink
			}
		})
	}
}

// TestRunDotBatchScratchRegrowth checks the cold path the guard above never
// exercises: a wider layer after a narrow one must regrow the scratch and
// still match a fresh engine (the scratch is pure working storage, never
// carried state).
func TestRunDotBatchScratchRegrowth(t *testing.T) {
	for _, q := range []int{1, 8} {
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			weights, bias, xs := batchLayer(4, 200, q)

			e1 := newTestEngine(t, 2, false)
			narrowW, _, narrowXs := batchLayer(2, 8, 1)
			e1.ExecuteFCBiasBatch(narrowW, nil, narrowXs, ActIdentity, 0) // scratch sized small
			got := e1.ExecuteFCBiasBatch(weights, bias, xs, ActReLU, 2)

			e2 := newTestEngine(t, 2, false)
			want := e2.ExecuteFCBiasBatch(weights, bias, xs, ActReLU, 2)
			for qi := range want.PerQuery {
				if !reflect.DeepEqual(got.PerQuery[qi].Raw, want.PerQuery[qi].Raw) {
					t.Fatalf("regrown scratch changed query %d: %v != %v",
						qi, got.PerQuery[qi].Raw, want.PerQuery[qi].Raw)
				}
			}
		})
	}
}
