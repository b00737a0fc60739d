package datapath

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// sentinel fills the operand buffers around the regions partitionWide is
// granted, so a word store that escapes them shows.
const sentinel = 0xa5

// rowAt packs w's signs into a bitmap of just the bytes the row touches, its
// first sign at bit, every bit outside the row set.
func rowAt(w []fixed.Signed, bit int) fixed.Row {
	signs := bytes.Repeat([]byte{0xff}, (bit+len(w)+7)/8)
	mags := make([]byte, len(w))
	for i, wi := range w {
		mags[i] = byte(wi.Mag)
		if !wi.Neg {
			signs[(bit+i)>>3] &^= 1 << ((bit + i) & 7)
		}
	}
	return fixed.Row{Mags: mags, Signs: signs, Bit: bit}
}

// checkPartition partitions row (w in wire layout) against x as a span of
// one dot starting at pos on a core of lanes lanes, in buffers ending where
// the dot's 2n-byte region ends — the tightest ensure grants — whose capacity
// runs on into sentinels. It requires the per-element loop's operands in its
// order, the positive group then the negative one right after it, each
// group's steps in the table, and every byte outside the region untouched.
func checkPartition(t *testing.T, name string, row fixed.Row, w []fixed.Signed, x []fixed.Code, pos, lanes int) {
	t.Helper()
	n := len(w)
	var wantW, wantX [2][]fixed.Code
	for i, wi := range w {
		if wi.Mag == 0 || x[i] == 0 {
			continue
		}
		g := 0
		if wi.Neg {
			g = 1
		}
		wantW[g], wantX[g] = append(wantW[g], wi.Mag), append(wantX[g], x[i])
	}
	end := pos + 2*n
	backW, backX := make([]fixed.Code, end+8), make([]fixed.Code, end+8)
	for i := range backW {
		backW[i], backX[i] = sentinel, sentinel
	}
	bW, bX := backW[:end], backX[:end]
	bounds, rows, dots := []int{pos, -1, -1}, make([]int, 2), make([]dotCount, 1)
	total := partitionWide(bW, bX, row, n, [][]fixed.Code{x}, newCeilDiv(lanes), bounds, rows, dots)
	if bounds[1]-pos != len(wantW[0]) || bounds[2]-bounds[1] != len(wantW[1]) {
		t.Fatalf("%s: %d positive, %d negative operands; want %d, %d",
			name, bounds[1]-pos, bounds[2]-bounds[1], len(wantW[0]), len(wantW[1]))
	}
	for g, at := range [2]int{pos, bounds[1]} {
		k := len(wantW[g])
		if !slices.Equal(bW[at:at+k], wantW[g]) || !slices.Equal(bX[at:at+k], wantX[g]) {
			t.Fatalf("%s group %d: operands\n%v\n%v\nwant\n%v\n%v", name, g, bW[at:at+k], bX[at:at+k], wantW[g], wantX[g])
		}
	}
	ps, ns := (len(wantW[0])+lanes-1)/lanes, (len(wantW[1])+lanes-1)/lanes
	if want := (dotCount{pos: ps, parts: ps + ns}); dots[0] != want || total != ps+ns || rows[0] != 0 || rows[1] != total {
		t.Fatalf("%s on %d lanes: table %+v, rows %v, %d steps; want %+v, %d", name, lanes, dots[0], rows, total, want, ps+ns)
	}
	for _, span := range [][2]int{{0, pos}, {end, len(backW)}} {
		for i := span[0]; i < span[1]; i++ {
			if backW[i] != sentinel || backX[i] != sentinel {
				t.Fatalf("%s: byte %d outside the region [%d, %d) written", name, i, pos, end)
			}
		}
	}
}

// codeBytes copies codes into the []byte a fuzz seed takes.
func codeBytes(c []fixed.Code) []byte {
	b := make([]byte, len(c))
	for i, v := range c {
		b[i] = byte(v)
	}
	return b
}

// partitionRow is one row shape partitionWide has a path for.
type partitionRow struct {
	kind string
	w    []fixed.Signed
	x    []fixed.Code
}

// partitionRows draws, n wide: a halves-style dense positive row with one
// activation in forty dark, a coin-flip-sign row with runs of zero
// magnitudes and runs of dark activations longer than a chunk, and a
// coin-flip-sign row with half its activations dark.
func partitionRows(n int, seed uint64) []partitionRow {
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	draw := func(kind string, neg func() bool, magZero, xZero func(i int) bool, xLo int) partitionRow {
		r := partitionRow{kind, make([]fixed.Signed, n), make([]fixed.Code, n)}
		for i := range r.w {
			if !magZero(i) {
				r.w[i] = fixed.Signed{Mag: fixed.Code(1 + rng.IntN(255)), Neg: neg()}
			}
			if !xZero(i) {
				r.x[i] = fixed.Code(xLo + rng.IntN(256-xLo))
			}
		}
		return r
	}
	never := func(int) bool { return false }
	coin := func() bool { return rng.IntN(2) == 1 }
	return []partitionRow{
		draw("dense", func() bool { return false }, never, func(int) bool { return rng.IntN(40) == 0 }, 128),
		draw("runs", coin, func(i int) bool { return (i/70)%3 == 1 }, func(i int) bool { return (i/90)%3 == 2 }, 1),
		draw("coinflip", coin, func(int) bool { return rng.IntN(8) == 0 }, func(int) bool { return rng.IntN(2) == 0 }, 1),
	}
}

// TestPartitionWideRuns holds partitionWide's bulk moves to the per-element
// loop where they start and stop: a dense positive run broken by a zero
// magnitude, a zero activation or a set sign bit, in the first search
// window, at its edges and past it, and in the row's last partial octet; a
// dense run that ends only at the row's end; and zero-magnitude stretches
// of 255, 256 and 257 bytes, on and off an octet boundary. Every row is
// checked with its first sign at each of the 8 bits of a byte.
func TestPartitionWideRuns(t *testing.T) {
	dense := func(n int) partitionRow {
		r := partitionRow{"dense", make([]fixed.Signed, n), make([]fixed.Code, n)}
		for i := range r.w {
			r.w[i], r.x[i] = fixed.Signed{Mag: fixed.Code(1 + i%255)}, fixed.Code(255-i%200)
		}
		return r
	}
	breaks := map[string]func(r partitionRow, i int){
		"zero magnitude":  func(r partitionRow, i int) { r.w[i].Mag = 0 },
		"zero activation": func(r partitionRow, i int) { r.x[i] = 0 },
		"set sign":        func(r partitionRow, i int) { r.w[i].Neg = true },
	}
	var rows []partitionRow
	for _, n := range []int{wideRow, 2045} {
		rows = append(rows, dense(n))
		for kind, brk := range breaks {
			for _, at := range []int{32, 37, 255, 256, 257, 700, n - 9, n - 3, n - 1} {
				r := dense(n)
				r.kind = fmt.Sprintf("%s at %d", kind, at)
				brk(r, at)
				brk(r, min(n-1, at+300)) // and a second run after it
				rows = append(rows, r)
			}
		}
	}
	for _, zeros := range []int{255, 256, 257} {
		for _, at := range []int{0, 64, 67, 1021 - zeros} {
			r := partitionRows(1100, uint64(zeros))[2]
			r.kind = fmt.Sprintf("%d zero magnitudes at %d", zeros, at)
			for i := at; i < at+zeros; i++ {
				r.w[i].Mag = 0
			}
			rows = append(rows, r)
		}
	}
	for _, r := range rows {
		for bit := 0; bit < 8; bit++ {
			checkPartition(t, fmt.Sprintf("%s, %d wide, bit %d", r.kind, len(r.w), bit), rowAt(r.w, bit), r.w, r.x, 3, 2)
		}
	}
}

// FuzzPartition checks partitionWide against the per-element loop on
// arbitrary magnitudes, activations and signs (cycled over the row), with
// the row's first sign at any bit, the dot at any cursor and any lane count.
// Its seeds are the rows the engine hands it, wideRow wide or more; narrow
// rows take the masked pass, which FuzzMaskedMatchesOperandPass holds to
// this walk.
func FuzzPartition(f *testing.F) {
	for _, n := range []int{wideRow + 3, wideRow + 100, wideRow + 37} {
		for _, r := range partitionRows(n, 5) {
			row := rowAt(r.w, 0)
			f.Add(row.Mags, codeBytes(r.x), row.Signs, uint8(3), uint16(n), uint8(1))
		}
	}
	dark := bytes.Repeat([]byte{9}, wideRow+70) // a dense positive chunk but for one dark code in its last octet
	dark[wideRow+29] = 0
	f.Add(bytes.Repeat([]byte{255}, wideRow+70), dark, []byte{0}, uint8(5), uint16(2), uint8(2))
	halves := make([]byte, 2*wideRow) // a halves row: a dense positive run, then zero magnitudes
	for i := range wideRow {
		halves[i] = 255
	}
	f.Add(halves, bytes.Repeat([]byte{200}, 2*wideRow), []byte{0}, uint8(3), uint16(9), uint8(1))
	f.Fuzz(func(t *testing.T, mags, acts, signs []byte, bit uint8, pos uint16, lanes uint8) {
		n := min(len(mags), len(acts))
		w, x := make([]fixed.Signed, n), make([]fixed.Code, n)
		for i := range w {
			neg := len(signs) > 0 && signs[(i/8)%len(signs)]>>(i%8)&1 != 0
			w[i], x[i] = fixed.Signed{Mag: fixed.Code(mags[i]), Neg: neg}, fixed.Code(acts[i])
		}
		checkPartition(t, "fuzz", rowAt(w, int(bit&7)), w, x, int(pos)%2048, 1+int(lanes)%4)
	})
}

// coinFlipLayer draws a rows×cols layer whose signs are coin flips and whose
// magnitudes are never zero, and q queries with half their codes dark: every
// octet of it is mixed, the shape of the anomaly MLP's rows.
func coinFlipLayer(rows, cols, q int, seed uint64) (fixed.Matrix, [][]fixed.Code) {
	rng := rand.New(rand.NewPCG(seed, uint64(cols)))
	m := make(fixed.Matrix, rows)
	for j := range m {
		m[j] = make([]fixed.Signed, cols)
		for i := range m[j] {
			m[j][i] = fixed.Signed{Mag: fixed.Code(1 + rng.IntN(255)), Neg: rng.IntN(2) == 1}
		}
	}
	xs := make([][]fixed.Code, q)
	for qi := range xs {
		xs[qi] = make([]fixed.Code, cols)
		for i := range xs[qi] {
			if rng.IntN(2) == 0 {
				xs[qi][i] = fixed.Code(1 + rng.IntN(255))
			}
		}
	}
	return m, xs
}

// BenchmarkPartition times partitionWide alone over every (row, query) of
// a layer, one call a layer as issueSpan makes it for a layer of one span:
// the vision-width halves layer (dense positive runs, one dim half mostly
// dark) at batch 1 and 8, and an 8×4096 coin-flip layer at batch 1, a
// mixed-sign row with no run to move in bulk. Narrower rows take the masked
// pass and have no partition (BenchmarkSmallLayers, BenchmarkRowWidth).
func BenchmarkPartition(b *testing.B) {
	type layer struct {
		name string
		m    fixed.Matrix
		xs   [][]fixed.Code
	}
	var layers []layer
	for _, q := range []int{1, 8} {
		hm, hxs := halvesLayer(visionWidth, q, 51)
		layers = append(layers, layer{fmt.Sprintf("halves/q%d", q), hm, hxs})
	}
	m, xs := coinFlipLayer(8, 4096, 1, 7)
	layers = append(layers, layer{"coinflip8x4096/q1", m, xs})
	for _, l := range layers {
		b.Run(l.name, func(b *testing.B) {
			rows, n := len(l.m), len(l.m[0])
			p, err := fixed.View(l.m.Pack(), rows, n)
			if err != nil {
				b.Fatal(err)
			}
			dots := rows * len(l.xs)
			bW, bX := make([]fixed.Code, (dots+1)*n), make([]fixed.Code, (dots+1)*n)
			bounds, rowSteps, table := make([]int, 2*dots+1), make([]int, rows+1), make([]dotCount, dots)
			div := newCeilDiv(2)
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				partitionWide(bW, bX, p.Rows(0, rows), n, l.xs, div, bounds, rowSteps, table)
			}
		})
	}
}
