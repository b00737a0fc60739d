package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// Quantized-model serialization: a compact versioned binary format so
// trained models can be shipped to a NIC over the PCIe update path or saved
// by the serve tooling. Layout (little-endian):
//
//	magic   uint32 "LQN1"
//	layers  uint16
//	sizes   uint32 × (layers+1)
//	per layer:
//	  shift  uint8
//	  final  uint8
//	  wscale float64 bits
//	  weights: mag bytes row-major + packed sign bitmap (fixed.Matrix.Pack)
//	  bias:   int16 × out
const quantMagic = 0x4c514e31 // "LQN1"

// WriteTo serializes the network.
func (q *QuantizedNetwork) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	write := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }
	if err := write(uint32(quantMagic)); err != nil {
		return cw.n, err
	}
	if err := write(uint16(len(q.Layers))); err != nil {
		return cw.n, err
	}
	for _, s := range q.Sizes {
		if err := write(uint32(s)); err != nil {
			return cw.n, err
		}
	}
	for _, l := range q.Layers {
		final := uint8(0)
		if l.Final {
			final = 1
		}
		if err := write(uint8(l.Shift)); err != nil {
			return cw.n, err
		}
		if err := write(final); err != nil {
			return cw.n, err
		}
		if err := write(math.Float64bits(l.WScale.Max)); err != nil {
			return cw.n, err
		}
		if err := write(l.Weights.Pack()); err != nil {
			return cw.n, err
		}
		for _, b := range l.Bias {
			if err := write(int16(b)); err != nil {
				return cw.n, err
			}
		}
	}
	return cw.n, nil
}

// ReadQuantized deserializes a network written by WriteTo.
func ReadQuantized(r io.Reader) (*QuantizedNetwork, error) {
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var magic uint32
	if err := read(&magic); err != nil {
		return nil, fmt.Errorf("nn: reading magic: %w", err)
	}
	if magic != quantMagic {
		return nil, fmt.Errorf("nn: bad magic %#08x", magic)
	}
	var layers uint16
	if err := read(&layers); err != nil {
		return nil, err
	}
	if layers == 0 || layers > 1024 {
		return nil, fmt.Errorf("nn: implausible layer count %d", layers)
	}
	q := &QuantizedNetwork{Sizes: make([]int, layers+1)}
	for i := range q.Sizes {
		var s uint32
		if err := read(&s); err != nil {
			return nil, err
		}
		if s == 0 || s > 1<<24 {
			return nil, fmt.Errorf("nn: implausible layer size %d", s)
		}
		q.Sizes[i] = int(s)
	}
	for l := 0; l < int(layers); l++ {
		in, out := q.Sizes[l], q.Sizes[l+1]
		var shift, final uint8
		var scaleBits uint64
		if err := read(&shift); err != nil {
			return nil, err
		}
		if err := read(&final); err != nil {
			return nil, err
		}
		if err := read(&scaleBits); err != nil {
			return nil, err
		}
		// The sizes are wire-supplied: read the blob as it arrives, so a
		// hostile header cannot make us allocate what the reader cannot
		// supply.
		n, ok := fixed.PackedLen(out, in)
		if !ok {
			return nil, fmt.Errorf("nn: layer %d: %dx%d weights do not fit memory", l, out, in)
		}
		var blob bytes.Buffer
		if _, err := io.CopyN(&blob, r, int64(n)); err != nil {
			return nil, fmt.Errorf("nn: reading layer %d weights: %w", l, err)
		}
		packed, err := fixed.View(blob.Bytes(), out, in)
		if err != nil {
			return nil, err
		}
		bias := make([]fixed.Acc, out)
		for j := range bias {
			var b int16
			if err := read(&b); err != nil {
				return nil, err
			}
			bias[j] = fixed.Acc(b)
		}
		q.Layers = append(q.Layers, QuantizedLayer{
			Weights: packed.Matrix(),
			Bias:    bias,
			Shift:   uint(shift),
			Final:   final != 0,
			WScale:  fixed.Scale{Max: math.Float64frombits(scaleBits)},
		})
	}
	return q, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
