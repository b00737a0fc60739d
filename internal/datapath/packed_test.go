package datapath

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// packedCase draws a rows×cols layer and q activation vectors from a seed.
// Row 0 is all zero and row 1 all negative; the other rows mix signs with
// runs of zero magnitudes, and the activations carry zero runs too, so zero
// words, zero octets, dense octets and mixed octets all occur.
func packedCase(seed uint64, rows, cols, q int) (fixed.Matrix, []fixed.Acc, [][]fixed.Code) {
	rng := rand.New(rand.NewPCG(seed, 15))
	sparse := func(i int) bool { return (i/11)%3 == 1 }
	m := make(fixed.Matrix, rows)
	for j := range m {
		m[j] = make([]fixed.Signed, cols)
		for i := range m[j] {
			switch {
			case j == 0:
			case j == 1:
				m[j][i] = fixed.Signed{Mag: fixed.Code(1 + rng.IntN(255)), Neg: true}
			case !sparse(i + j):
				m[j][i] = fixed.Signed{Mag: fixed.Code(rng.IntN(256)), Neg: rng.IntN(4) == 0}
			}
		}
	}
	bias := make([]fixed.Acc, rows)
	for j := range bias {
		bias[j] = fixed.Acc(rng.IntN(400) - 200)
	}
	xs := make([][]fixed.Code, q)
	for qi := range xs {
		xs[qi] = make([]fixed.Code, cols)
		for i := range xs[qi] {
			if !sparse(i + 5*qi) {
				xs[qi][i] = fixed.Code(rng.IntN(256))
			}
		}
	}
	return m, bias, xs
}

// TestPartitionMatchesReference holds partitionWide, the operand pass's
// walk, to the per-element loop it replaced: same operands, same order,
// positive group and negative group, no store outside the dot's region. It
// runs rows of packed layers and the skip, move and compaction shapes at
// widths from wideRow up, each with its first sign at every bit of a byte,
// and the vision-width halves rows. Narrower rows take the masked pass,
// which FuzzMaskedMatchesOperandPass holds to this walk.
func TestPartitionMatchesReference(t *testing.T) {
	for _, cols := range []int{wideRow, wideRow + 5, wideRow + 13} {
		const rows = 9 // with odd widths, rows start at every bit of a byte
		m, _, xs := packedCase(uint64(cols), rows, cols, 1)
		p, err := fixed.View(m.Pack(), rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < rows; j++ {
			row, _ := p.Row(j, nil)
			checkPartition(t, fmt.Sprintf("packed cols %d row %d", cols, j), row, m[j], xs[0], 0, 2)
		}
	}
	for _, n := range []int{wideRow, wideRow + 1, wideRow + 31, 2*wideRow + 33, 4096} {
		for _, r := range partitionRows(n, 3) {
			for bit := 0; bit < 8; bit++ {
				for _, at := range [][2]int{{0, 2}, {5, 3}, {n, 1}} { // pos, lanes
					checkPartition(t, fmt.Sprintf("%s %d bit %d pos %d lanes %d", r.kind, n, bit, at[0], at[1]), rowAt(r.w, bit), r.w, r.x, at[0], at[1])
				}
			}
		}
	}
	m, xs := halvesLayer(visionWidth, 2, 51)
	for j, w := range m {
		for qi, x := range xs {
			for _, bit := range []int{0, 3} {
				checkPartition(t, fmt.Sprintf("halves row %d query %d bit %d", j, qi, bit), rowAt(w, bit), w, x, 7, 2)
			}
		}
	}
}

// checkPackedEquivalence runs one layer twice on same-seed engines, once from
// the in-memory matrix and once from a view over its DRAM blob, and requires
// identical Raw, Quantized, Probs and Stats — noiseless, and bit for bit
// with a seeded noise model, which also pins the noise-draw order.
func checkPackedEquivalence(t *testing.T, seed uint64, rows, cols, q int) {
	t.Helper()
	m, bias, xs := packedCase(seed, rows, cols, q)
	p, err := fixed.View(m.Pack(), rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, noisy := range []bool{false, true} {
		want := newTestEngine(t, 2, noisy).ExecuteFCBiasBatch(m, bias, xs, ActSoftmax, 3)
		got := newTestEngine(t, 2, noisy).ExecuteFCBiasBatch(p, bias, xs, ActSoftmax, 3)
		if got.Stats != want.Stats {
			t.Fatalf("%dx%d q%d noisy=%v: Stats %+v from the view, %+v from the matrix", rows, cols, q, noisy, got.Stats, want.Stats)
		}
		if !reflect.DeepEqual(got.PerQuery, want.PerQuery) {
			t.Fatalf("%dx%d q%d noisy=%v: outputs differ\nview   %+v\nmatrix %+v", rows, cols, q, noisy, got.PerQuery, want.PerQuery)
		}
	}
}

func TestPackedViewMatchesMatrix(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {2, 7}, {3, 8}, {4, 13}, {5, 64}, {6, 37}, {3, 200}} {
		for _, q := range []int{1, 8} {
			t.Run(fmt.Sprintf("%dx%d/q%d", dim[0], dim[1], q), func(t *testing.T) {
				checkPackedEquivalence(t, 1, dim[0], dim[1], q)
			})
		}
	}
}

func FuzzPackedViewEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint16(13), false)
	f.Add(uint64(2), uint8(2), uint16(64), true)
	f.Add(uint64(3), uint8(7), uint16(9), true)
	f.Fuzz(func(t *testing.T, seed uint64, rows uint8, cols uint16, wide bool) {
		q := 1
		if wide {
			q = 8
		}
		checkPackedEquivalence(t, seed, 1+int(rows)%12, 1+int(cols)%300, q)
	})
}

// TestScratchFootprintOneWideLayer pins what one wide layer leaves resident
// in the engine: operand buffers by elements, one block's partials as float64
// and the whole layer's burst at a byte a sample — no second copy of it as
// frames or as an extracted payload, no per-partial sign controls — and no
// row buffer at all when the weights arrive as a view. Re-pinned when the
// burst became layer-wide: its stream now holds both rows' samples where the
// per-neuron burst held one row's three times over (sign controls sized for
// the densest row, frames, payload), so the total must not exceed what the
// per-neuron engine left resident for this same layer. Re-pinned again when
// a row's pass went to blocks: the floats fell from one row's partials to one
// block's, and each helper goroutine holds one block more, so the process
// holds at most GOMAXPROCS blocks of floats however many engines it runs.
func TestScratchFootprintOneWideLayer(t *testing.T) {
	const n, lanes, q = 150528, 2, 1
	m := fixed.Matrix{make([]fixed.Signed, n), make([]fixed.Signed, n)}
	for i := 0; i < n/2; i++ {
		m[0][i], m[1][n/2+i] = fixed.Signed{Mag: 255}, fixed.Signed{Mag: 255, Neg: true}
	}
	p, err := fixed.View(m.Pack(), 2, n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]fixed.Code, n)
	for i := range x {
		x[i] = 200
	}
	e := newTestEngine(t, lanes, false)
	e.ExecuteFCBias(p, nil, x, ActSoftmax, 10)
	s := &e.scratch
	if len(s.bW) != (q+1)*n || len(s.bX) != (q+1)*n {
		t.Errorf("operand buffers %d, %d; want %d", len(s.bW), len(s.bX), (q+1)*n)
	}
	if s.packed != nil {
		t.Errorf("a packed view grew a %d-byte weight buffer", cap(s.packed))
	}
	// Each row has n/2 live products: n/2/lanes partials a row.
	const rowPartials = n / 2 / lanes
	if cap(s.block.parts) != blockSteps {
		t.Errorf("partials buffer holds %d readings; want one block's %d", cap(s.block.parts), blockSteps)
	}
	burst := 2*rowPartials + PrototypePreamble().Samples() + 2*Lanes
	if cap(s.stream) < burst-2*Lanes || cap(s.stream) > burst*5/4 {
		t.Errorf("burst stream holds %d samples; want the %d issued (within append's growth step)", cap(s.stream), burst)
	}
	// The per-neuron engine's scratch after this same layer, by field:
	// bW, bX and bParts 301056 each, bounds 24, qPos and qParts 8 each,
	// negs 75265, frames 40960, payload 40960, rowOut 2.
	const perNeuronBytes = 3*301056 + 24 + 8 + 8 + 75265 + 40960 + 40960 + 2
	got := cap(s.bW) + cap(s.bX) + 8*cap(s.bounds) + 8*cap(s.starts) + cap(s.packed) + 8*cap(s.block.parts) +
		8*cap(s.block.cuts) + cap(s.stream) + 16*cap(s.counts) + 2*cap(s.acc)
	if got > perNeuronBytes {
		t.Errorf("scratch holds %d bytes after one 2×%d layer; the per-neuron burst held %d", got, n, perNeuronBytes)
	}

	// The partial bound is met exactly when both sign groups round up to a
	// step: a fresh engine's exactly-sized scratch must hold them.
	odd := fixed.Matrix{{{Mag: 9}, {Mag: 9, Neg: true}, {Mag: 9, Neg: true}, {Mag: 9, Neg: true}}}
	res := newTestEngine(t, lanes, false).ExecuteFCBias(odd, nil, []fixed.Code{5, 5, 5, 5}, ActIdentity, 0)
	if res.Stats.PhotonicSteps != 4/lanes+1 {
		t.Errorf("odd sign groups took %d steps, want %d", res.Stats.PhotonicSteps, 4/lanes+1)
	}

	// A span shorter than a block holds only the readings it issues: the
	// anomaly MLP's 32-32-16-2 layers, one span each at q = 1, leave at most
	// the widest layer's steps of floats, where sizing by the step bound
	// dots·(n+2) held 1 088.
	mlp := newTestEngine(t, lanes, false)
	rng := rand.New(rand.NewPCG(32, 2))
	in := make([]fixed.Code, 32)
	for i := range in {
		in[i] = fixed.Code(rng.IntN(256))
	}
	widest := uint64(0)
	for _, dims := range [][2]int{{32, 32}, {16, 32}, {2, 16}} {
		w := make(fixed.Matrix, dims[0])
		for j := range w {
			w[j] = make([]fixed.Signed, dims[1])
			for i := range w[j] {
				w[j][i] = fixed.Signed{Mag: fixed.Code(rng.IntN(256)), Neg: rng.IntN(2) == 0}
			}
		}
		res := mlp.ExecuteFCBias(w, nil, in, ActReLU, 4)
		widest = max(widest, res.Stats.PhotonicSteps)
		in = res.Quantized
	}
	if got := cap(mlp.scratch.block.parts); uint64(got) > widest {
		t.Errorf("anomaly MLP left %d readings in the block; its widest layer issued %d steps", got, widest)
	}
}
