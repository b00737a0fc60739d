package dagloader

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/nn"
)

// threeLayerModel is a 48-24-40-6 network whose hidden layers stay live:
// positive biases keep the ReLUs open and the shifts keep codes in range.
func threeLayerModel() *nn.QuantizedNetwork {
	sizes := []int{48, 24, 40, 6}
	q := &nn.QuantizedNetwork{Sizes: sizes}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := make(fixed.Matrix, out)
		bias := make([]fixed.Acc, out)
		for j := range w {
			w[j] = make([]fixed.Signed, in)
			for i := range w[j] {
				w[j][i] = fixed.Signed{Mag: fixed.Code(1 + (i*11+j*7+l*5)%60), Neg: (i*3+j+l)%4 == 0}
			}
			bias[j] = fixed.Acc(16 * (j%5 + 1))
		}
		q.Layers = append(q.Layers, nn.QuantizedLayer{Weights: w, Bias: bias, Shift: 1, Final: l+2 == len(sizes)})
	}
	return q
}

// inside reports whether v's elements all lie in buf's backing array.
func inside(v, buf []fixed.Code) bool {
	if len(v) == 0 || cap(buf) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	return p >= lo && p+uintptr(len(v)) <= lo+uintptr(cap(buf))
}

// TestServeBatchHiddenLayersReadLoaderStorage: a served batch's results and
// its hidden layers' activations live in storage the loader and its engine
// reuse, so nothing one batch leaves behind may reach the next. Batches of
// two alternating input sets, at q = 1 and q = 8 on one loader, must each
// answer exactly what a fresh loader answers, and every input a hidden
// layer was handed must be a view of the loader's activation buffer for
// that layer's parity — never the engine's output storage, which the layer
// itself overwrites.
func TestServeBatchHiddenLayersReadLoaderStorage(t *testing.T) {
	model := threeLayerModel()
	for _, q := range []int{1, 8} {
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			sets := [2][][]fixed.Code{batchInputs(48, q), batchInputs(48, q)}
			for _, x := range sets[1] {
				slices.Reverse(x)
			}
			var want [2][]Result
			for s, xs := range sets {
				fresh := newNoiselessLoader(t)
				if err := fresh.RegisterModel(1, "three", model); err != nil {
					t.Fatal(err)
				}
				res, _, err := fresh.ServeBatch(1, xs)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range res {
					want[s] = append(want[s], Result{Class: r.Class, Probs: slices.Clone(r.Probs), Raw: slices.Clone(r.Raw)})
				}
			}
			if slices.EqualFunc(want[0], want[1], func(a, b Result) bool { return slices.Equal(a.Raw, b.Raw) }) {
				t.Fatal("the two input sets answer alike: the test could not see a stale layer")
			}
			ld := newNoiselessLoader(t)
			if err := ld.RegisterModel(1, "three", model); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 24; round++ {
				s := round % 2
				got, _, err := ld.ServeBatch(1, sets[s])
				if err != nil {
					t.Fatal(err)
				}
				for qi, r := range got {
					w := want[s][qi]
					if r.Class != w.Class || !slices.Equal(r.Probs, w.Probs) || !slices.Equal(r.Raw, w.Raw) {
						t.Fatalf("round %d query %d: %+v, a fresh loader answers %+v", round, qi, r, w)
					}
				}
				for p, next := range ld.batch.next {
					if len(next) < q {
						t.Fatalf("round %d: hidden layer %d was handed no loader-owned inputs", round, p)
					}
					for qi, v := range next[:q] {
						if !inside(v, ld.batch.act[p]) {
							t.Fatalf("round %d: hidden layer %d's input for query %d is not in the loader's activation buffer", round, p, qi)
						}
					}
				}
			}
		})
	}
}
