package datapath

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// checkMaskedMatchesOperandPass serves m on two twin engines, noise on: one
// through the masked pass, its rows issued in two calls cut at split, the
// other through the operand pass (partitionWide and the span pass's blocks)
// in the engine's own spans. Everything the layer left must match byte for
// byte: the burst, the count table, every LayerStats field, the core's step
// counter, the accumulators and the noise cursor, which the trace reads by
// probe Steps. kill names a lane to Kill on both cores first (−1 for none),
// and stale moves a modulator off its baked tables, so the layer re-bakes
// them as its burst opens.
func checkMaskedMatchesOperandPass(t *testing.T, m fixed.Matrix, xs [][]fixed.Code, lanes, kill, split int, stale bool) {
	t.Helper()
	p := packedView(t, m...)
	twins := [2]*Engine{newTestEngine(t, lanes, true), newTestEngine(t, lanes, true)}
	for _, e := range twins {
		if kill >= 0 {
			e.Core.Lanes()[kill].Kill()
		}
		if stale {
			e.Core.Lanes()[0].Mod1.Bias += 0.3
		}
	}
	masked := func(e *Engine, w fixed.Packed, xs [][]fixed.Code, stats *LayerStats) {
		rows, _ := w.Dims()
		e.issueMasked(w, 0, split, xs, stats)
		e.issueMasked(w, split, rows, xs, stats)
	}
	got, want := traceLayer(twins[0], p, xs, masked), traceLayer(twins[1], p, xs, inSpans(0))
	if got != want {
		firstDiff(t, fmt.Sprintf("%d×%d, q=%d, %d lanes, lane %d killed, split at %d, stale %v", len(m), len(m[0]), len(xs), lanes, kill, split, stale),
			got, want, "the masked pass", "the operand pass")
	}
}

// FuzzMaskedMatchesOperandPass holds the masked pass to the operand pass it
// replaced for narrow rows (checkMaskedMatchesOperandPass) on random layers:
// widths 1 to 1023, whose rows past the first start their sign windows
// mid-byte when the width is not a multiple of eight; batches 1 to 9 and 65;
// rows and queries of every density from all zero magnitudes and dark
// activations to dense (spanLayer); and cores of one, two and three lanes,
// with and without a killed lane. The seeds cover widths 1, 7, 8, 32, 63,
// 64, 65, 129, 784 and 1023, each lane count killed and whole, and batch 65.
func FuzzMaskedMatchesOperandPass(f *testing.F) {
	for _, c := range []struct {
		rows        uint8
		n           uint16
		q           uint8 // 9 is batch 65
		lanes, kill uint8 // kill k > 0 kills lane k−1
		stale       bool
	}{
		{5, 7, 0, 2, 0, false},
		{9, 8, 2, 1, 0, false},
		{12, 63, 8, 3, 0, false},
		{7, 64, 1, 2, 2, false},
		{11, 65, 7, 3, 3, true},
		{4, 784, 9, 2, 0, false},
		{3, 1023, 4, 2, 0, true},
		{30, 1, 9, 1, 0, false},
		{6, 129, 3, 2, 1, false},
		{40, 32, 7, 2, 0, false},
		{8, 33, 5, 3, 1, false},
		{2, 16, 0, 1, 1, false},
	} {
		f.Add(uint64(c.n)+uint64(c.rows)<<16, c.rows, c.n-1, c.q, c.lanes-1, c.kill, c.stale)
	}
	f.Fuzz(func(t *testing.T, seed uint64, rows uint8, cols uint16, q, lanes, kill uint8, stale bool) {
		rng := rand.New(rand.NewPCG(seed, 53))
		r, nl, b := 1+int(rows)%40, 1+int(lanes)%3, 1+int(q)%10
		if b == 10 {
			b = 65
		}
		m, xs := spanLayer(rng, r, 1+int(cols)%(wideRow-1), b)
		checkMaskedMatchesOperandPass(t, m, xs, nl, int(kill)%(nl+1)-1, rng.IntN(r+1), stale)
	})
}

// TestScratchFootprintMaskedLayers: the anomaly MLP's 32-32-16-2 layers,
// served at batch 1 and 8 on a fresh engine, grow none of the operand pass's
// storage — no operand buffers, group bounds, row or group step offsets, or
// block cuts — and keep their masks in the engine's scratch: no row is wider
// than 64, so one word for each query's activations, two for a row's
// magnitudes and signs, and one for each sign group of the widest layer's 32
// rows. The readings hold one run of rows, no more steps than the widest
// layer issues and under a block's plus a row's step bound, ⌈(32+1)/2⌉ a
// query.
func TestScratchFootprintMaskedLayers(t *testing.T) {
	for _, q := range []int{1, 8} {
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			e := newTestEngine(t, 2, true)
			rng := rand.New(rand.NewPCG(32, uint64(q)))
			xs := make([][]fixed.Code, q)
			for qi := range xs {
				xs[qi] = make([]fixed.Code, 32)
				for i := range xs[qi] {
					xs[qi][i] = fixed.Code(rng.IntN(256))
				}
			}
			widest := 0
			for _, dims := range [][2]int{{32, 32}, {16, 32}, {2, 16}} {
				m, _ := coinFlipLayer(dims[0], dims[1], 1, rng.Uint64())
				res := e.ExecuteFCBiasBatch(packedView(t, m...), nil, xs, ActReLU, 4)
				widest = max(widest, int(res.Stats.PhotonicSteps))
				for qi := range xs {
					xs[qi] = append(xs[qi][:0], res.PerQuery[qi].Quantized...)
				}
			}
			s := &e.scratch
			if s.bW != nil || s.bX != nil || s.bounds != nil || s.starts != nil || s.rows != nil || s.block.cuts != nil {
				t.Errorf("the masked pass grew operand-pass storage: bW %d, bX %d, bounds %d, starts %d, rows %d, cuts %d",
					cap(s.bW), cap(s.bX), cap(s.bounds), cap(s.starts), cap(s.rows), cap(s.block.cuts))
			}
			if want := q + 2 + 2*q*32; cap(s.masks) != want {
				t.Errorf("masks hold %d words, want %d", cap(s.masks), want)
			}
			if got := cap(s.block.parts); got == 0 || got > widest || got >= blockSteps+q*(32+2)/2 {
				t.Errorf("readings hold %d steps; the widest layer issued %d, a block is %d", got, widest, blockSteps)
			}
		})
	}
}
