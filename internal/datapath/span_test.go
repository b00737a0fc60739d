package datapath

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// issueRowRef is the per-row issue loop the span pass replaced, kept as its
// reference: one row sign-partitioned on its own (a span of one row), its
// steps run inline in blocks of the row, a kernel call per group and one
// readout a block under the row's key from the block's row position, and
// the cursor left where a pass from it would stand after the row.
func issueRowRef(e *Engine, w fixed.Row, row int, xs [][]fixed.Code, stats *LayerStats) {
	q, n, lanes := len(xs), len(w.Mags), e.Core.NumLanes()
	s := &e.scratch
	bW, bX := make([]fixed.Code, (q+1)*n), make([]fixed.Code, (q+1)*n)
	bounds, dots := make([]int, 2*q+1), make([]dotCount, q)
	total := partitionWide(bW, bX, w, n, xs, newCeilDiv(lanes), bounds, make([]int, 2), dots)
	s.counts = append(s.counts, dots...)
	starts := groupStarts(make([]int, 2*q+1), dots)
	stats.PhotonicSteps += uint64(total)
	if total == 0 {
		return
	}
	if len(s.stream) == 0 {
		s.phase = e.ADC.RandomPhase()
		s.stream = e.ADC.OpenBurst(s.stream, e.pre, s.phase)
		e.Core.Rebake()
	}
	at := len(s.stream)
	s.stream = e.ADC.Reserve(s.stream, total)
	out := s.stream[at:]
	key := noiseKey(e.bursts, row)
	parts := make([]float64, blockSteps)
	for lo := 0; lo < total; lo += blockSteps {
		hi := min(lo+blockSteps, total)
		g := 0
		for starts[g+1] <= lo {
			g++
		}
		for st := lo; st < hi; g++ {
			end := min(starts[g+1], hi)
			first := bounds[g] + (st-starts[g])*lanes
			last := min(bounds[g]+(end-starts[g])*lanes, bounds[g+1])
			e.Core.ReadingsInto(parts[st-lo:end-lo], bW[first:last], bX[first:last])
			st = end
		}
		e.Core.ReadoutAt(out[lo:hi], parts[:hi-lo], key, uint64(lo))
	}
	e.Core.Steps += uint64(total)
	e.Core.SeekNoiseAt(key, uint64(total))
}

// issueFunc issues every row of a layer onto an engine's open burst.
type issueFunc func(e *Engine, w fixed.Packed, xs [][]fixed.Code, stats *LayerStats)

// inSpans issues a layer through the operand pass in spans of span rows, the
// engine's own spanRows when span is 0.
func inSpans(span int) issueFunc {
	return func(e *Engine, w fixed.Packed, xs [][]fixed.Code, stats *LayerStats) {
		rows, n := w.Dims()
		sp := span
		if sp == 0 {
			sp = spanRows(n, len(xs), e.Core.NumLanes())
		}
		for lo := 0; lo < rows; lo += sp {
			e.issueSpan(w, lo, min(lo+sp, rows), xs, stats)
		}
	}
}

// perRowRef issues a layer row by row through issueRowRef.
func perRowRef(e *Engine, w fixed.Packed, xs [][]fixed.Code, stats *LayerStats) {
	rows, _ := w.Dims()
	for j := 0; j < rows; j++ {
		row, _ := w.Row(j, nil)
		issueRowRef(e, row, j, xs, stats)
	}
}

// traceLayer serves one layer's rows on e the way ExecuteFCBiasBatch does,
// through issue, and renders what it left: the burst's bytes and the count
// table after the last row, the stats and the core's step counter, the
// reassembled accumulators, and the next draws from the core's noise cursor.
func traceLayer(e *Engine, w fixed.Packed, xs [][]fixed.Code, issue issueFunc) string {
	rows, _ := w.Dims()
	s := &e.scratch
	s.beginLayer()
	e.armAdder()
	e.bursts++
	var stats LayerStats
	issue(e, w, xs, &stats)
	var b strings.Builder
	fmt.Fprintf(&b, "burst %v\ncounts %v\n", s.stream, s.counts)
	out := make([]fixed.Acc, rows*len(xs))
	e.readBurst(out, &stats)
	fmt.Fprintf(&b, "stats %+v\ncore.steps %d\nacc %v\nnext", stats, e.Core.Steps, out)
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, " %v", e.Core.Step([]fixed.Code{200}, []fixed.Code{100}))
	}
	return b.String()
}

// firstDiff fails t with the first line where two traces differ.
func firstDiff(t *testing.T, what, got, want, gotName, wantName string) {
	t.Helper()
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s: %s left\n%.600s\n%s\n%.600s", what, gotName, gl[i], wantName, wl[i])
		}
	}
	t.Fatalf("%s: %s and %s left different traces", what, gotName, wantName)
}

// spanLayer draws a rows×cols layer and q queries whose rows and queries mix
// what a span must carry: all-zero rows, sparse and dense rows under
// coin-flip, all-positive or all-negative signs, and empty, sparse and dense
// queries. A dense row of a wide layer takes thousands of steps where a
// sparse one beside it takes a few.
func spanLayer(rng *rand.Rand, rows, cols, q int) (fixed.Matrix, [][]fixed.Code) {
	density := func() int { return []int{0, 3, 50, 90, 100}[rng.IntN(5)] }
	m := make(fixed.Matrix, rows)
	for j := range m {
		m[j] = make([]fixed.Signed, cols)
		d, signs := density(), rng.IntN(3)
		for i := range m[j] {
			if rng.IntN(100) < d {
				m[j][i] = fixed.Signed{Mag: fixed.Code(1 + rng.IntN(255)), Neg: signs == 1 || signs == 2 && rng.IntN(2) == 1}
			}
		}
	}
	xs := make([][]fixed.Code, q)
	for qi := range xs {
		xs[qi] = make([]fixed.Code, cols)
		d := density()
		for i := range xs[qi] {
			if rng.IntN(100) < d {
				xs[qi][i] = fixed.Code(1 + rng.IntN(255))
			}
		}
	}
	return m, xs
}

// checkSpanMatchesPerRow serves m on two twin engines, noise on, a layer for
// each entry of spans: one engine through the span pass in spans of that
// many rows, the other row by row through the reference loop. Everything
// each layer left must match byte for byte. stale moves a modulator off its
// baked LUTs first, so every layer re-bakes them as its burst opens.
func checkSpanMatchesPerRow(t *testing.T, m fixed.Matrix, xs [][]fixed.Code, lanes int, stale bool, spans ...int) {
	t.Helper()
	p := packedView(t, m...)
	twins := [2]*Engine{newTestEngine(t, lanes, true), newTestEngine(t, lanes, true)}
	if stale {
		for _, e := range twins {
			e.Core.Lanes()[0].Mod1.Bias += 0.3
		}
	}
	for layer, span := range spans {
		got, want := traceLayer(twins[0], p, xs, inSpans(span)), traceLayer(twins[1], p, xs, perRowRef)
		if got != want {
			firstDiff(t, fmt.Sprintf("layer %d (%d×%d, q=%d, %d lanes, spans of %d, stale %v)", layer, len(m), len(m[0]), len(xs), lanes, span, stale),
				got, want, "the span pass", "the per-row loop")
		}
	}
}

// TestSpanMatchesPerRow holds the span pass to the per-row issue loop it
// replaced, noise on, at one P and at two: the burst's bytes, the count
// table, the layer's stats, the core's step counter, the accumulators and
// the noise cursor after the layer. Its cases are random geometries at batch
// 1 to 16 under the engine's own spans and under arbitrary ones; spans whose
// blocks cut rows and groups; a dense row thousands of steps wide between
// sparse rows, as one span fanned out to the helpers and as the engine cuts
// it; all-zero rows and empty queries; and a core whose modulator a fault
// moved off its baked LUTs.
func TestSpanMatchesPerRow(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := rand.New(rand.NewPCG(45, uint64(procs)))
			for i := 0; i < 40; i++ {
				rows, cols, q := 1+rng.IntN(40), 1+rng.IntN(300), 1+rng.IntN(16)
				m, xs := spanLayer(rng, rows, cols, q)
				checkSpanMatchesPerRow(t, m, xs, []int{2, 2, 1, 3}[i%4], i%5 == 4, 0, 1, 1+rng.IntN(rows), rows)
			}
			// Spans of many blocks: blocks cut rows and sign groups, and a
			// block holds the tail of one row, whole rows and the head of
			// another.
			m, xs := spanLayer(rng, 24, 700, 5)
			checkSpanMatchesPerRow(t, m, xs, 2, false, 0, 7, 24)
			checkSpanMatchesPerRow(t, m, xs, 2, true, 7, 24)
			// A dense row of 10 000 steps between sparse rows and an
			// all-zero one; an empty query beside a dense one.
			const wide = 20000
			sparse, dense, zero := make([]fixed.Signed, wide), make([]fixed.Signed, wide), make([]fixed.Signed, wide)
			for i := range dense {
				dense[i] = fixed.Signed{Mag: fixed.Code(1 + i%255), Neg: i%3 == 0}
				if i%97 == 0 {
					sparse[i] = fixed.Signed{Mag: 200, Neg: i%2 == 0}
				}
			}
			x, empty := make([]fixed.Code, wide), make([]fixed.Code, wide)
			for i := range x {
				x[i] = fixed.Code(1 + (i*7)%255)
			}
			mw := fixed.Matrix{sparse, zero, dense, sparse, sparse}
			for _, xw := range [][][]fixed.Code{{x}, {empty, x}, {empty}} {
				checkSpanMatchesPerRow(t, mw, xw, 2, false, 0, 1, len(mw))
				checkSpanMatchesPerRow(t, mw, xw, 2, true, len(mw))
			}
		})
	}
}

func FuzzSpanMatchesPerRow(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint16(40), uint8(3), uint8(0), uint8(2), false)
	f.Add(uint64(2), uint8(30), uint16(299), uint8(15), uint8(7), uint8(2), true)
	f.Add(uint64(3), uint8(2), uint16(9000), uint8(1), uint8(2), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, rows uint8, cols uint16, q, span, lanes uint8, stale bool) {
		rng := rand.New(rand.NewPCG(seed, 45))
		r := 1 + int(rows)%40
		m, xs := spanLayer(rng, r, 1+int(cols)%12000, 1+int(q)%16)
		checkSpanMatchesPerRow(t, m, xs, 1+int(lanes)%3, stale, int(span)%(r+1), 0)
	})
}
