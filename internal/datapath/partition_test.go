package datapath

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// sentinel fills the operand buffers around the regions partition is granted,
// so a word store that escapes them shows.
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

// checkPartition partitions row (w in wire layout) against x with the
// positive group from pos and the negative group gap bytes past that group's
// n-byte region, in buffers ending where the negative region ends — the
// tightest ensure grants — whose capacity runs on into sentinels. It requires
// the per-element loop's operands in its order and every byte outside the two
// regions untouched.
func checkPartition(t *testing.T, name string, row fixed.Row, w []fixed.Signed, x []fixed.Code, pos, gap int) {
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
	neg := pos + n + gap
	backW, backX := make([]fixed.Code, neg+n+8), make([]fixed.Code, neg+n+8)
	for i := range backW {
		backW[i], backX[i] = sentinel, sentinel
	}
	bW, bX := backW[:neg+n], backX[:neg+n]
	pi, ni := partition(bW, bX, row, x, pos, neg)
	if pi-pos != len(wantW[0]) || ni-neg != len(wantW[1]) {
		t.Fatalf("%s: %d positive, %d negative operands; want %d, %d",
			name, pi-pos, ni-neg, len(wantW[0]), len(wantW[1]))
	}
	for g, at := range [2]int{pos, neg} {
		k := len(wantW[g])
		if !slices.Equal(bW[at:at+k], wantW[g]) || !slices.Equal(bX[at:at+k], wantX[g]) {
			t.Fatalf("%s group %d: operands\n%v\n%v\nwant\n%v\n%v", name, g, bW[at:at+k], bX[at:at+k], wantW[g], wantX[g])
		}
	}
	for _, span := range [][2]int{{0, pos}, {pos + n, neg}, {neg + n, len(backW)}} {
		for i := span[0]; i < span[1]; i++ {
			if backW[i] != sentinel || backX[i] != sentinel {
				t.Fatalf("%s: byte %d outside the regions [%d, %d) and [%d, %d) written", name, i, pos, pos+n, neg, neg+n)
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

// partitionRow is one row shape partition has a path for.
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

// FuzzPartition checks partition against the per-element loop on arbitrary
// magnitudes, activations and signs (cycled over the row), with the row's
// first sign at any bit and the groups at any cursors.
func FuzzPartition(f *testing.F) {
	for _, n := range []int{40, 100} {
		for _, r := range partitionRows(n, 5) {
			row := rowAt(r.w, 0)
			f.Add(row.Mags, codeBytes(r.x), row.Signs, uint8(3), uint16(n), uint8(0))
		}
	}
	dark := bytes.Repeat([]byte{9}, 70) // a dense positive chunk but for one dark code in its last octet
	dark[29] = 0
	f.Add(bytes.Repeat([]byte{255}, 70), dark, []byte{0}, uint8(5), uint16(2), uint8(1))
	f.Fuzz(func(t *testing.T, mags, acts, signs []byte, bit uint8, pos uint16, gap uint8) {
		n := min(len(mags), len(acts))
		w, x := make([]fixed.Signed, n), make([]fixed.Code, n)
		for i := range w {
			neg := len(signs) > 0 && signs[(i/8)%len(signs)]>>(i%8)&1 != 0
			w[i], x[i] = fixed.Signed{Mag: fixed.Code(mags[i]), Neg: neg}, fixed.Code(acts[i])
		}
		checkPartition(t, "fuzz", rowAt(w, int(bit&7)), w, x, int(pos)%2048, int(gap)%16)
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

// BenchmarkPartition times partition alone over every (row, query) of a
// layer, the cursors advancing as issueRow advances them: the vision-width
// halves layer (dense positive runs, one dim half mostly dark) and a 32×32
// coin-flip-sign layer with half its activations zero, at batch 1 and 8.
func BenchmarkPartition(b *testing.B) {
	type layer struct {
		name string
		m    fixed.Matrix
		xs   [][]fixed.Code
	}
	for _, q := range []int{1, 8} {
		hm, hxs := halvesLayer(visionWidth, q, 51)
		cm, cxs := coinFlipLayer(32, 32, q, 7)
		for _, l := range []layer{{"halves", hm, hxs}, {"coinflip32", cm, cxs}} {
			b.Run(fmt.Sprintf("%s/q%d", l.name, q), func(b *testing.B) {
				rows, n := len(l.m), len(l.m[0])
				p, err := fixed.View(l.m.Pack(), rows, n)
				if err != nil {
					b.Fatal(err)
				}
				bW, bX := make([]fixed.Code, (q+1)*n), make([]fixed.Code, (q+1)*n)
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					for j := 0; j < rows; j++ {
						row, _ := p.Row(j, nil)
						bi := 0
						for _, x := range l.xs {
							pi, ni := partition(bW, bX, row, x, bi, bi+n)
							bi = pi + ni - (bi + n)
						}
					}
				}
			})
		}
	}
}
