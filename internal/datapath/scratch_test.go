package datapath

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// TestLayerBurstZeroSteadyStateAllocs guards the engine's layer routine, for
// a lone query and for a full batch: once the scratch has grown to the layer
// geometry × batch size (one warm-up layer), issuing the layer's rows and
// reading their burst back through the full analog+digital pipeline — the
// masked pass's masks and kernel, or the wide case's sign partition and
// blocks, digitization behind the preamble, preamble detection, cross-cycle
// reassembly, adder tree — must not allocate. The wide case's rows are each
// a span long enough to be offered to helpers, at two Ps or more, so
// dispatch and the wait for helpers are held to it too.
func TestLayerBurstZeroSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		q, in int
	}{{"q1", 1, 64}, {"q8", 8, 64}, {"wide", 1, 4 * fanOutSteps}} {
		t.Run(c.name, func(t *testing.T) {
			q, in := c.q, c.in
			if c.name == "wide" {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
			}
			e := newTestEngine(t, 2, true)
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
			p := packedView(t, w, w, w)
			layer := func() {
				issueLayer(e, p, xs, &stats)
				e.readBurst(out, &stats)
			}
			layer() // warm-up: grows scratch and starts the helpers
			if c.name == "wide" && helpersRunning.Load() == 0 {
				t.Fatal("no helper started: the wide rows were not offered")
			}
			if n := testing.AllocsPerRun(100, layer); n != 0 {
				t.Fatalf("a layer's burst allocates %v times in steady state, want 0", n)
			}
			if stats.PreambleMisses != 0 || out[0] == 0 || out[rows*q-1] == 0 {
				t.Fatalf("burst read back %v with %d preamble misses", out, stats.PreambleMisses)
			}
			if c.name == "q1" {
				// The smallest layer, one row in a burst of its own, must
				// not add any either.
				var sink fixed.Acc
				one := packedView(t, w)
				if n := testing.AllocsPerRun(100, func() {
					sink += oneRowLayer(e, one, xs, &stats)
				}); n != 0 {
					t.Fatalf("a one-row layer allocates %v times in steady state, want 0", n)
				}
				_ = sink
			}
		})
	}
}

// oneRowLayer drives the burst stages for the smallest layer there is: one
// row, issued onto an empty burst and read straight back.
func oneRowLayer(e *Engine, w fixed.Packed, xs [][]fixed.Code, stats *LayerStats) fixed.Acc {
	var out [1]fixed.Acc
	e.scratch.beginLayer()
	e.issueRows(w, 0, 1, xs, stats)
	e.readBurst(out[:], stats)
	return out[0]
}

// issueLayer issues every row of w onto the engine's burst as
// ExecuteFCBiasBatch does.
func issueLayer(e *Engine, w fixed.Packed, xs [][]fixed.Code, stats *LayerStats) {
	rows, _ := w.Dims()
	e.issueRows(w, 0, rows, xs, stats)
}

// packedView packs rows, equally wide, into a fresh wire-layout view.
func packedView(t testing.TB, rows ...[]fixed.Signed) fixed.Packed {
	t.Helper()
	m := fixed.Matrix(rows)
	p, err := fixed.View(m.Pack(), len(rows), len(rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	return p
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

// TestLayerStartsOnAnEmptyBurst: a layer that panics between issuing a row
// and reading the burst back (the row-width check) leaves its samples and
// count-table entries in the scratch. An engine reused after recovering must
// not read them into the next layer: a full layer and a lone row both start
// from an empty stream and table, match a fresh engine's answers, and read
// only the frames their own burst fills (the phase drawn differs from the
// fresh engine's, so the cycle count is held to the referee's formula
// instead).
func TestLayerStartsOnAnEmptyBurst(t *testing.T) {
	weights, bias, xs := batchLayer(4, 64, 2)
	abandon := func(e *Engine) {
		defer func() {
			if recover() == nil {
				t.Fatal("a row narrower than the activations did not panic")
			}
		}()
		var stats LayerStats
		e.issueRows(packedView(t, weights[0]), 0, 1, xs, &stats)
		e.issueRows(packedView(t, make([]fixed.Signed, 32)), 0, 1, xs, &stats)
	}

	fresh := newTestEngine(t, 2, false)
	want := fresh.ExecuteFCBiasBatch(weights, bias, xs, ActReLU, 2)
	var wantStats LayerStats
	row1 := packedView(t, weights[1])
	wantDot := oneRowLayer(fresh, row1, xs[:1], &wantStats)

	e := newTestEngine(t, 2, false)
	abandon(e)
	if len(e.scratch.stream) == 0 || len(e.scratch.counts) == 0 {
		t.Fatal("the abandoned layer left nothing behind: the test no longer reaches the seam")
	}
	got := e.ExecuteFCBiasBatch(weights, bias, xs, ActReLU, 2)
	for qi := range want.PerQuery {
		if !reflect.DeepEqual(got.PerQuery[qi].Raw, want.PerQuery[qi].Raw) {
			t.Errorf("query %d after an abandoned layer: %v, fresh engine %v", qi, got.PerQuery[qi].Raw, want.PerQuery[qi].Raw)
		}
	}
	samples := e.scratch.phase + len(e.pre) + int(got.Stats.PhotonicSteps)
	frames := (samples + converter.SamplesPerCycle - 1) / converter.SamplesPerCycle
	if got.Stats.DatapathCycles != uint64(PerLayerOverheadCycles+frames) {
		t.Errorf("datapath cycles after an abandoned layer %d, want %d + %d frames", got.Stats.DatapathCycles, PerLayerOverheadCycles, frames)
	}

	abandon(e)
	var stats LayerStats
	if dot := oneRowLayer(e, row1, xs[:1], &stats); dot != wantDot || stats.PhotonicSteps != wantStats.PhotonicSteps {
		t.Errorf("one row after an abandoned layer: %d in %d steps, fresh engine %d in %d", dot, stats.PhotonicSteps, wantDot, wantStats.PhotonicSteps)
	}
}
