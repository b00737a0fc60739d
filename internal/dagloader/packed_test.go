package dagloader

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/nn"
)

// oneLayerModel builds a final rows×cols layer whose row j answers to the
// j-th stripe of the input, with mixed signs.
func oneLayerModel(rows, cols int) *nn.QuantizedNetwork {
	w := make(fixed.Matrix, rows)
	for j := range w {
		w[j] = make([]fixed.Signed, cols)
		for i := range w[j] {
			w[j][i] = fixed.Signed{Mag: fixed.Code(40 + (i*7+j*13)%200), Neg: (i+j)%rows != 0}
		}
	}
	return &nn.QuantizedNetwork{
		Sizes:  []int{cols, rows},
		Layers: []nn.QuantizedLayer{{Weights: w, Bias: make([]fixed.Acc, rows), Shift: 4, Final: true}},
	}
}

// TestFaultedWeightReadCorruptsOnlyThatQuery: the engine reads weights from
// whatever bytes the DRAM read returned, on every query. A read fault that
// flips one sign bit and one magnitude byte in a copy of the blob changes
// the query that read it, leaves the stored blob alone, and the next
// fault-free query is clean — nothing decoded is cached or retained.
func TestFaultedWeightReadCorruptsOnlyThatQuery(t *testing.T) {
	ld := newNoiselessLoader(t)
	const rows, cols = 3, 21 // rows 1 and 2 start mid-byte in the sign bitmap
	q := oneLayerModel(rows, cols)
	if err := ld.RegisterModel(1, "faulted", q); err != nil {
		t.Fatal(err)
	}
	mc, _ := ld.Model(1)
	key := mc.Layers[0].WeightsKey
	stored := q.Layers[0].Weights.Pack()
	input := batchInputs(cols, 1)[0]

	clean, err := ld.Serve(1, input)
	if err != nil {
		t.Fatal(err)
	}
	clean = &Result{Class: clean.Class, Raw: clean.Raw, Probs: clean.Probs}

	faults := 0
	ld.DRAM.SetReadFault(func(k string, blob []byte) ([]byte, bool) {
		if k != key || faults > 0 {
			return blob, true
		}
		faults++
		bad := append([]byte(nil), blob...)
		bad[1*cols+4] ^= 0x80                                  // row 1, element 4: magnitude
		bad[rows*cols+(2*cols+5)/8] ^= 1 << ((2*cols + 5) % 8) // row 2, element 5: sign
		return bad, true
	})
	hit, err := ld.Serve(1, input)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Raw[0] != clean.Raw[0] || hit.Raw[1] == clean.Raw[1] || hit.Raw[2] == clean.Raw[2] {
		t.Fatalf("faulted read served %v, clean %v: want rows 1 and 2 (only) changed", hit.Raw, clean.Raw)
	}
	if got, _ := ld.DRAM.Load(key); !bytes.Equal(got, stored) {
		t.Fatal("the fault reached the stored blob")
	}
	after, err := ld.Serve(1, input)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Raw, clean.Raw) || !reflect.DeepEqual(after.Probs, clean.Probs) || after.Class != clean.Class {
		t.Fatalf("query after the fault served %v, want the clean %v", after.Raw, clean.Raw)
	}
	if faults != 1 {
		t.Fatalf("fault fired %d times, want 1", faults)
	}
}

// TestServeBatchWeightPathZeroAllocs: in steady state a served batch
// allocates nothing at all, whether the layer holds 128 weights or 16 384:
// the weight view, the bias, the results and every layer output live in
// storage the loader and its engine keep.
func TestServeBatchWeightPathZeroAllocs(t *testing.T) {
	for _, q := range []int{1, 4} {
		const want = 0
		for _, dim := range [][2]int{{2, 64}, {32, 512}} {
			ld := newNoiselessLoader(t)
			if err := ld.RegisterModel(1, "allocs", oneLayerModel(dim[0], dim[1])); err != nil {
				t.Fatal(err)
			}
			xs := batchInputs(dim[1], q)
			serve := func() {
				if _, _, err := ld.ServeBatch(1, xs); err != nil {
					t.Fatal(err)
				}
			}
			serve() // warm-up: grows engine scratch
			if n := testing.AllocsPerRun(20, serve); n != want {
				t.Errorf("%dx%d layer, batch %d: ServeBatch allocates %v times per call, want %v", dim[0], dim[1], q, n, want)
			}
		}
	}
}
