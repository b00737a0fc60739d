package fixed

import (
	"fmt"
	"math"
	"unsafe"
)

// The DRAM wire layout of a rows×cols sign/magnitude weight matrix is the
// engine's one operand format: rows·cols magnitude bytes row-major, then a
// packed sign bitmap with element (j, i)'s sign at bit j·cols+i, least
// significant bit first. The data streamer feeds the magnitude bytes to the
// DACs as they sit in memory and the offline-separated sign bit only steers
// the cross-cycle adder-subtractor (§5.1, §5.3, footnote 2), so nothing
// between DRAM and the DACs rebuilds a matrix of Signed structs.

// Weights is a weight matrix the engine can stream in wire layout: a Packed
// view over a DRAM blob, or an in-memory Matrix.
type Weights interface {
	Dims() (rows, cols int)
	// PackInto returns the matrix as a wire-layout view. An implementation
	// that does not store that layout packs it into buf, growing it if
	// needed, and returns it for reuse; one that does returns buf untouched.
	PackInto(buf []byte) (Packed, []byte)
}

// Row is one weight row in wire layout, or consecutive rows back to back
// (Packed.Rows).
type Row struct {
	// Mags holds the row's magnitude bytes, one per column.
	Mags []byte
	// Signs is the bitmap holding the row's sign bits; element i's sign is
	// bit Bit+i. A row of a matrix whose width is not a multiple of eight
	// starts mid-byte.
	Signs []byte
	Bit   int
}

// Neg reports whether element i is negative.
func (r Row) Neg(i int) bool {
	b := r.Bit + i
	return r.Signs[b>>3]&(1<<(b&7)) != 0
}

// PackedLen is the wire size of a rows×cols matrix. ok is false when it does
// not fit an int, which sizes read off the wire can provoke.
func PackedLen(rows, cols int) (n int, ok bool) {
	if rows < 0 || cols < 0 || (cols != 0 && rows > math.MaxInt/cols) {
		return 0, false
	}
	elems := rows * cols
	if elems > math.MaxInt-bitmapLen(elems) {
		return 0, false
	}
	return elems + bitmapLen(elems), true
}

// bitmapLen is the byte length of an n-bit sign bitmap, safe for any n ≥ 0.
func bitmapLen(n int) int { return n/8 + (n%8+7)/8 }

// packRow writes row's magnitudes to mags and ORs its signs into the bitmap
// from bit on; the bits must start out clear.
func packRow(mags, signs []byte, bit int, row []Signed) {
	for i, s := range row {
		mags[i] = byte(s.Mag)
		if s.Neg {
			signs[(bit+i)>>3] |= 1 << ((bit + i) & 7)
		}
	}
}

// Matrix is an in-memory sign/magnitude weight matrix, one []Signed per
// output neuron: what quantization produces and the digital references read.
// All rows must be equally wide.
type Matrix [][]Signed

// Dims implements Weights.
func (m Matrix) Dims() (rows, cols int) {
	if len(m) == 0 {
		return 0, 0
	}
	return len(m), len(m[0])
}

// Pack serializes the matrix into a fresh wire-layout blob.
func (m Matrix) Pack() []byte {
	_, blob := m.PackInto(nil)
	return blob
}

// PackInto implements Weights: it serializes the matrix into buf, growing
// buf if it is too small, and returns a view over the blob and the buffer,
// which is the blob.
func (m Matrix) PackInto(buf []byte) (Packed, []byte) {
	rows, cols := m.Dims()
	n := rows * cols
	if need := n + bitmapLen(n); cap(buf) < need {
		buf = make([]byte, need)
	} else {
		buf = buf[:need]
	}
	clear(buf[n:])
	for j, row := range m {
		packRow(buf[j*cols:(j+1)*cols], buf[n:], j*cols, row)
	}
	return Packed{rows: rows, cols: cols, mags: buf[:n], signs: buf[n:]}, buf
}

// Packed is a zero-copy view of a wire-layout blob. It aliases the bytes it
// was built over and must not outlive them.
type Packed struct {
	rows, cols  int
	mags, signs []byte
}

// View checks blob's length against the geometry and returns a view over it.
// It reads no weight byte: O(1) whatever the matrix size.
func View(blob []byte, rows, cols int) (Packed, error) {
	want, ok := PackedLen(rows, cols)
	if !ok || len(blob) != want {
		return Packed{}, fmt.Errorf("fixed: weight blob is %d bytes, want %d for %dx%d", len(blob), want, rows, cols)
	}
	n := rows * cols
	return Packed{rows: rows, cols: cols, mags: blob[:n], signs: blob[n:]}, nil
}

// Dims implements Weights.
func (p Packed) Dims() (rows, cols int) { return p.rows, p.cols }

// PackInto implements Weights: the view is the layout, and buf is not used.
func (p Packed) PackInto(buf []byte) (Packed, []byte) { return p, buf }

// Row returns row j in wire layout as subslices of the blob; buf is not
// used.
func (p Packed) Row(j int, buf []byte) (Row, []byte) {
	return p.Rows(j, j+1), buf
}

// Rows returns rows [lo, hi) in wire layout as one Row, as subslices of the
// blob: their magnitude bytes back to back, (hi−lo)·cols of them, with row
// lo's first sign at Bit and row j's cols·(j−lo) bits past it.
func (p Packed) Rows(lo, hi int) Row {
	return Row{Mags: p.mags[lo*p.cols : hi*p.cols], Signs: p.signs, Bit: lo * p.cols}
}

// Matrix unpacks the view into a fresh in-memory matrix.
func (p Packed) Matrix() Matrix {
	m := make(Matrix, p.rows)
	for j := range m {
		row, _ := p.Row(j, nil)
		m[j] = make([]Signed, p.cols)
		for i, mag := range row.Mags {
			m[j][i] = Signed{Mag: Code(mag), Neg: row.Neg(i)}
		}
	}
	return m
}

// CodesOf views wire bytes as datapath codes without copying them: a query
// arrives as bytes, a Code is one byte, and the engine only reads its input,
// so the reassembled buffer is the operand, as the DRAM blob is for weights.
// The view shares b's storage, length and capacity; it must not outlive b,
// and b must not be written while the view is in use. CodesOf and its
// inverse BytesOf are the module's one use of unsafe outside the socket
// layer.
func CodesOf(b []byte) []Code {
	return unsafe.Slice((*Code)(unsafe.SliceData(b)), cap(b))[:len(b)]
}

// BytesOf views codes as bytes without copying them, CodesOf the other way
// round: what lets the engine hand activation codes to the bytes package's
// vectorised search. The view shares c's storage, length and capacity, with
// the same lifetime rule as CodesOf's.
func BytesOf(c []Code) []byte {
	return unsafe.Slice((*byte)(unsafe.SliceData(c)), cap(c))[:len(c)]
}
