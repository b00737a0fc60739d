package fixed

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) Matrix {
	m := make(Matrix, rows)
	for j := range m {
		m[j] = make([]Signed, cols)
		for i := range m[j] {
			m[j][i] = Signed{Mag: Code(rng.IntN(256)), Neg: rng.IntN(2) == 1}
		}
	}
	return m
}

// TestPackedRoundTrip is the one weight-codec round trip (dagloader's DRAM
// blobs and nn's serialized models both use this codec): Pack → View →
// Matrix is the identity, the wire layout is the documented one, and every
// row the view hands out — including rows that start mid-byte in the bitmap
// — reads the same as the row PackRow builds from the in-memory matrix.
func TestPackedRoundTrip(t *testing.T) {
	w := Matrix{
		{{Mag: 1}, {Mag: 255, Neg: true}, {Mag: 0}},
		{{Mag: 128, Neg: true}, {Mag: 7}, {Mag: 200, Neg: true}},
	}
	want := []byte{1, 255, 0, 128, 7, 200, 0b101010}
	if got := w.Pack(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Pack = %v, want %v", got, want)
	}

	rng := rand.New(rand.NewPCG(15, 1))
	for _, dim := range [][2]int{{2, 3}, {1, 1}, {5, 8}, {4, 13}, {7, 1}, {3, 64}, {9, 21}} {
		rows, cols := dim[0], dim[1]
		m := randMatrix(rng, rows, cols)
		blob := m.Pack()
		if n, ok := PackedLen(rows, cols); !ok || n != len(blob) {
			t.Fatalf("%dx%d: PackedLen = %d, %v; blob is %d bytes", rows, cols, n, ok, len(blob))
		}
		p, err := View(blob, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		if r, c := p.Dims(); r != rows || c != cols {
			t.Fatalf("Dims = %d, %d, want %d, %d", r, c, rows, cols)
		}
		if got := p.Matrix(); !reflect.DeepEqual(got, m) {
			t.Fatalf("%dx%d: round trip changed the matrix", rows, cols)
		}
		var buf []byte
		for j := 0; j < rows; j++ {
			fromView, _ := p.Row(j, nil)
			var fromMem Row
			fromMem, buf = m.Row(j, buf)
			if fromView.Bit != j*cols || fromMem.Bit != 0 {
				t.Fatalf("row %d: sign offsets %d (view) and %d (matrix)", j, fromView.Bit, fromMem.Bit)
			}
			if !reflect.DeepEqual(fromView.Mags, fromMem.Mags) {
				t.Fatalf("%dx%d row %d: magnitudes differ", rows, cols, j)
			}
			for i := 0; i < cols; i++ {
				if fromView.Neg(i) != m[j][i].Neg || fromMem.Neg(i) != m[j][i].Neg {
					t.Fatalf("%dx%d element (%d,%d): sign differs", rows, cols, j, i)
				}
			}
		}
	}
}

// TestViewRejectsWrongLength covers the one validation the view performs:
// the blob must be exactly the geometry's wire size, and a geometry whose
// size does not fit an int is rejected rather than wrapped.
func TestViewRejectsWrongLength(t *testing.T) {
	blob := randMatrix(rand.New(rand.NewPCG(15, 2)), 2, 3).Pack()
	for _, dim := range [][2]int{{3, 3}, {2, 4}, {1, 3}, {-1, 3}} {
		if _, err := View(blob, dim[0], dim[1]); err == nil {
			t.Errorf("%dx%d accepted for a 2x3 blob", dim[0], dim[1])
		}
	}
	if _, err := View(blob[:len(blob)-1], 2, 3); err == nil {
		t.Error("truncated blob accepted")
	}
	if _, ok := PackedLen(math.MaxInt/2, 3); ok {
		t.Error("PackedLen reported an overflowing geometry as fitting")
	}
	if _, ok := PackedLen(math.MaxInt, 1); ok {
		t.Error("PackedLen ignored the bitmap's share of an overflowing size")
	}
}

// TestPackRowReusesBuffer pins PackRow's scratch contract: a large enough
// buffer is packed in place with stale sign bits cleared, a small one grows.
func TestPackRowReusesBuffer(t *testing.T) {
	buf := make([]byte, 16)
	for i := range buf {
		buf[i] = 0xff
	}
	row, got := PackRow([]Signed{{Mag: 3}, {Mag: 4, Neg: true}, {Mag: 5}}, buf)
	if &got[0] != &buf[0] {
		t.Fatal("PackRow reallocated a buffer that was large enough")
	}
	if !reflect.DeepEqual(row.Mags, []byte{3, 4, 5}) || !reflect.DeepEqual(row.Signs, []byte{0b010}) {
		t.Fatalf("packed row = %v / %v", row.Mags, row.Signs)
	}
	if _, grown := PackRow(make([]Signed, 100), buf); len(grown) < 113 {
		t.Fatalf("PackRow left a %d-byte buffer for a 100-wide row", len(grown))
	}
}

// TestCodesOfAliases holds the byte→Code view to what its callers rely on:
// same storage (a write through either side shows on the other), same length
// and capacity, no allocation, and the empty cases stay empty.
func TestCodesOfAliases(t *testing.T) {
	backing := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b := backing[2:5]
	codes := CodesOf(b)
	if len(codes) != len(b) || cap(codes) != cap(b) {
		t.Fatalf("view is len %d cap %d over len %d cap %d", len(codes), cap(codes), len(b), cap(b))
	}
	for i := range b {
		if codes[i] != Code(b[i]) {
			t.Fatalf("code %d reads %d, byte is %d", i, codes[i], b[i])
		}
	}
	b[1] = 200
	if codes[1] != 200 {
		t.Fatal("a byte write does not show through the view: it copied")
	}
	codes[2] = 99
	if backing[4] != 99 {
		t.Fatal("a code write does not land in the bytes: it copied")
	}
	if got := codes[:cap(codes)][cap(codes)-1]; got != 8 {
		t.Fatalf("the view's spare capacity ends on %d, the backing array on 8", got)
	}
	if n := testing.AllocsPerRun(100, func() { codes = CodesOf(b) }); n != 0 {
		t.Fatalf("CodesOf allocates %v times", n)
	}
	if got := CodesOf(nil); got != nil {
		t.Fatalf("CodesOf(nil) = %v, want nil", got)
	}
	if got := CodesOf([]byte{}); len(got) != 0 {
		t.Fatalf("CodesOf of an empty slice has %d codes", len(got))
	}
}
