package datapath

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// TestLayerBurstZeroSteadyStateAllocs guards the engine's layer routine, for
// a lone query and for a full batch: once the scratch has grown to the layer
// geometry × batch size (one warm-up layer), issuing rows and reading their
// burst back through the full analog+digital pipeline — sign partition,
// photonic pass, digitization behind the preamble, preamble detection,
// cross-cycle reassembly, adder tree — must not allocate.
func TestLayerBurstZeroSteadyStateAllocs(t *testing.T) {
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
			const rows = 3
			out := make([]fixed.Acc, rows*q)
			var stats LayerStats
			row, _ := fixed.PackRow(w, nil)
			layer := func() {
				for j := 0; j < rows; j++ {
					e.issueRow(row, xs, &stats)
				}
				e.readBurst(out, &stats)
			}
			layer() // warm-up: grows scratch
			if n := testing.AllocsPerRun(100, layer); n != 0 {
				t.Fatalf("a layer's burst allocates %v times in steady state, want 0", n)
			}
			if stats.PreambleMisses != 0 || out[0] == 0 || out[rows*q-1] == 0 {
				t.Fatalf("burst read back %v with %d preamble misses", out, stats.PreambleMisses)
			}
			if q == 1 {
				// The one-row layer the templates call must not add any
				// either.
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

// TestLayerBurstScratchRegrowth checks the cold path the guard above never
// exercises: a wider layer after a narrow one must regrow the scratch and
// still match a fresh engine (the scratch is pure working storage, never
// carried state).
func TestLayerBurstScratchRegrowth(t *testing.T) {
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
