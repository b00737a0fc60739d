package nn

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/dataset"
)

func TestQuantizedSerializeRoundTrip(t *testing.T) {
	set := dataset.Anomaly(300, 17)
	n := New(1, dataset.FlowFeatureWidth, 16, 8, 2)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 8
	n.Train(set, cfg)
	q := Quantize(n, set)

	var buf bytes.Buffer
	written, err := q.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if written != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", written, buf.Len())
	}
	got, err := ReadQuantized(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sizes) != len(q.Sizes) {
		t.Fatalf("sizes = %v, want %v", got.Sizes, q.Sizes)
	}
	for l := range q.Layers {
		a, b := q.Layers[l], got.Layers[l]
		if a.Shift != b.Shift || a.Final != b.Final || a.WScale != b.WScale {
			t.Errorf("layer %d metadata mismatch", l)
		}
		for j := range a.Weights {
			for i := range a.Weights[j] {
				if a.Weights[j][i] != b.Weights[j][i] {
					t.Fatalf("layer %d weight [%d][%d] mismatch", l, j, i)
				}
			}
		}
		for j := range a.Bias {
			if a.Bias[j] != b.Bias[j] {
				t.Fatalf("layer %d bias %d mismatch", l, j)
			}
		}
	}
	// Behavioural equality: identical inference on every example.
	for i := range set.Examples {
		ca, _ := q.Infer(set.Examples[i].X)
		cb, _ := got.Infer(set.Examples[i].X)
		if ca != cb {
			t.Fatalf("example %d: classes diverge after round trip", i)
		}
	}
}

// hostileHeader is a well-formed one-layer LQN1 stream claiming an in×out
// layer, cut off two bytes into the weights: 26 bytes in all.
func hostileHeader(in, out uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, quantMagic)
	b = binary.LittleEndian.AppendUint16(b, 1)
	b = binary.LittleEndian.AppendUint32(b, in)
	b = binary.LittleEndian.AppendUint32(b, out)
	b = append(b, 0, 1)               // shift, final
	b = append(b, make([]byte, 8)...) // weight scale
	return append(b, 0xff, 0xff)
}

func TestReadQuantizedRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		{1, 2, 3},
		{0x31, 0x4e, 0x51, 0x4c, 0xff, 0xff}, // right magic, absurd layer count
	}
	for i, c := range cases {
		if _, err := ReadQuantized(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Hostile layer sizes with no weights behind them: the reader must run
	// dry, not allocate 2^48 (or a merely fatal 2^38) bytes up front.
	for _, sizes := range [][2]uint32{{1 << 24, 1 << 24}, {1 << 24, 1 << 14}} {
		if _, err := ReadQuantized(bytes.NewReader(hostileHeader(sizes[0], sizes[1]))); err == nil {
			t.Errorf("%dx%d layer with a 2-byte weight blob accepted", sizes[1], sizes[0])
		}
	}
	// Truncated valid stream.
	set := dataset.Anomaly(50, 1)
	n := New(1, dataset.FlowFeatureWidth, 4, 2)
	q := Quantize(n, set)
	var buf bytes.Buffer
	q.WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadQuantized(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
}
