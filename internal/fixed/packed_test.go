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
// — reads the same magnitudes and signs as the in-memory matrix's row.
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
		for j := 0; j < rows; j++ {
			fromView, _ := p.Row(j, nil)
			if fromView.Bit != j*cols {
				t.Fatalf("row %d: sign offset %d", j, fromView.Bit)
			}
			for i := 0; i < cols; i++ {
				if Code(fromView.Mags[i]) != m[j][i].Mag || fromView.Neg(i) != m[j][i].Neg {
					t.Fatalf("%dx%d element (%d,%d) differs", rows, cols, j, i)
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

// TestMatrixPackIntoReusesBuffer pins PackInto's scratch contract: a large
// enough buffer is packed in place with stale sign bits cleared and the view
// reads the matrix, and a small one grows.
func TestMatrixPackIntoReusesBuffer(t *testing.T) {
	buf := make([]byte, 16)
	for i := range buf {
		buf[i] = 0xff
	}
	m := Matrix{{{Mag: 3}, {Mag: 4, Neg: true}, {Mag: 5}}}
	p, got := m.PackInto(buf)
	if &got[0] != &buf[0] {
		t.Fatal("PackInto reallocated a buffer that was large enough")
	}
	if !reflect.DeepEqual(got, []byte{3, 4, 5, 0b010}) || !reflect.DeepEqual(p.Matrix(), m) {
		t.Fatalf("packed %v, view reads %v", got, p.Matrix())
	}
	if _, grown := (Matrix{make([]Signed, 100)}).PackInto(buf); len(grown) != 113 {
		t.Fatalf("PackInto left a %d-byte blob for a 100-wide row", len(grown))
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

// TestBytesOfAliases holds the Code→byte view to the same contract as
// CodesOf: same storage both ways, same length and capacity, no allocation,
// and the empty cases stay empty.
func TestBytesOfAliases(t *testing.T) {
	backing := []Code{1, 2, 3, 4, 5, 6, 7, 8}
	c := backing[2:5]
	b := BytesOf(c)
	if len(b) != len(c) || cap(b) != cap(c) {
		t.Fatalf("view is len %d cap %d over len %d cap %d", len(b), cap(b), len(c), cap(c))
	}
	for i := range c {
		if b[i] != byte(c[i]) {
			t.Fatalf("byte %d reads %d, code is %d", i, b[i], c[i])
		}
	}
	c[1] = 200
	if b[1] != 200 {
		t.Fatal("a code write does not show through the view: it copied")
	}
	b[2] = 99
	if backing[4] != 99 {
		t.Fatal("a byte write does not land in the codes: it copied")
	}
	if got := b[:cap(b)][cap(b)-1]; got != 8 {
		t.Fatalf("the view's spare capacity ends on %d, the backing array on 8", got)
	}
	if n := testing.AllocsPerRun(100, func() { b = BytesOf(c) }); n != 0 {
		t.Fatalf("BytesOf allocates %v times", n)
	}
	if got := BytesOf(nil); got != nil {
		t.Fatalf("BytesOf(nil) = %v, want nil", got)
	}
	if got := BytesOf([]Code{}); len(got) != 0 {
		t.Fatalf("BytesOf of an empty slice has %d bytes", len(got))
	}
}
