package dagloader

import (
	"reflect"
	"strings"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/datapath"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/mem"
	"github.com/lightning-smartnic/lightning/internal/nn"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// newNoiselessLoader builds a loader on an ideal channel, where served
// results are a pure function of (model, input).
func newNoiselessLoader(t *testing.T) *Loader {
	t.Helper()
	core, err := photonic.NewCore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewLoader(datapath.NewEngine(core, 5), mem.New(mem.DDR4Spec(), 5))
}

func batchInputs(width, q int) [][]fixed.Code {
	xs := make([][]fixed.Code, q)
	for qi := range xs {
		xs[qi] = make([]fixed.Code, width)
		for i := range xs[qi] {
			xs[qi][i] = fixed.Code((i*29 + qi*101 + 3) % 256)
		}
	}
	return xs
}

// TestServeBatchMatchesServeNoiseless: one batched multi-layer inference
// pass must produce, per query, exactly the Result a fresh serial loader
// produces — class, probabilities, and raw logits bit-identical.
func TestServeBatchMatchesServeNoiseless(t *testing.T) {
	q, _, _ := trainedAnomalyNet(t)
	for _, batch := range []int{1, 2, 4, 7} {
		bl := newNoiselessLoader(t)
		if err := bl.RegisterModel(3, "anomaly", q); err != nil {
			t.Fatal(err)
		}
		width := mustWidth(t, bl, 3)
		inputs := batchInputs(width, batch)
		got, stats, err := bl.ServeBatch(3, inputs)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if len(got) != batch {
			t.Fatalf("batch %d returned %d results", batch, len(got))
		}
		if stats.PhotonicSteps == 0 {
			t.Fatalf("batch %d recorded no photonic steps", batch)
		}

		for qi, input := range inputs {
			sl := newNoiselessLoader(t)
			if err := sl.RegisterModel(3, "anomaly", q); err != nil {
				t.Fatal(err)
			}
			want, err := sl.Serve(3, input)
			if err != nil {
				t.Fatal(err)
			}
			if got[qi].Class != want.Class {
				t.Fatalf("batch %d query %d class %d != serial %d", batch, qi, got[qi].Class, want.Class)
			}
			if !reflect.DeepEqual(got[qi].Probs, want.Probs) || !reflect.DeepEqual(got[qi].Raw, want.Raw) {
				t.Fatalf("batch %d query %d probs/raw diverged from serial", batch, qi)
			}
		}
	}
}

// TestServeBatchAmortizesReconfigurations pins the loader-level payoff: a
// batch of Q queries applies each layer's program once (layers total), not
// once per query (layers × Q as Serve does).
func TestServeBatchAmortizesReconfigurations(t *testing.T) {
	q, _, _ := trainedAnomalyNet(t)
	ld := newNoiselessLoader(t)
	if err := ld.RegisterModel(3, "anomaly", q); err != nil {
		t.Fatal(err)
	}
	mc, _ := ld.Model(3)
	inputs := batchInputs(mc.Layers[0].In, 6)

	before := ld.Reconfigurations
	if _, _, err := ld.ServeBatch(3, inputs); err != nil {
		t.Fatal(err)
	}
	if got := ld.Reconfigurations - before; got != uint64(len(mc.Layers)) {
		t.Fatalf("batch of 6 applied %d programs, want %d (one per layer)", got, len(mc.Layers))
	}

	before = ld.Reconfigurations
	for _, in := range inputs {
		if _, err := ld.Serve(3, in); err != nil {
			t.Fatal(err)
		}
	}
	if got := ld.Reconfigurations - before; got != uint64(len(mc.Layers)*len(inputs)) {
		t.Fatalf("serial ×6 applied %d programs, want %d", got, len(mc.Layers)*len(inputs))
	}
}

// TestServeBatchErrors covers the whole-batch error surface: empty batch,
// unknown model, and a width mismatch anywhere in the batch.
func TestServeBatchErrors(t *testing.T) {
	q, _, _ := trainedAnomalyNet(t)
	ld := newNoiselessLoader(t)
	if err := ld.RegisterModel(3, "anomaly", q); err != nil {
		t.Fatal(err)
	}
	width := mustWidth(t, ld, 3)

	res, _, err := ld.ServeBatch(3, nil)
	if err != nil || res != nil {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
	if _, _, err := ld.ServeBatch(99, batchInputs(width, 2)); err == nil {
		t.Fatal("unknown model accepted")
	}
	bad := batchInputs(width, 3)
	bad[1] = bad[1][:width-1]
	if _, _, err := ld.ServeBatch(3, bad); err == nil {
		t.Fatal("width mismatch mid-batch accepted")
	}
}

// TestServeFaultedBiasReadFails is the regression test for the silently wrong
// answer a faulted bias read used to produce: the loader dropped the failed
// load's ok flag and served the layer with a zero bias and err == nil. On a
// 4→2 model whose bias alone decides the class, a read fault on the bias key
// must fail the query — lone or batched — never flip its answer.
func TestServeFaultedBiasReadFails(t *testing.T) {
	ld := newNoiselessLoader(t)
	q := &nn.QuantizedNetwork{Layers: []nn.QuantizedLayer{{
		Weights: [][]fixed.Signed{
			{{Mag: 1}, {Mag: 1}, {Mag: 1}, {Mag: 1}},
			{{Mag: 1}, {Mag: 1}, {Mag: 1}, {Mag: 1}},
		},
		Bias:  []fixed.Acc{0, 3000},
		Final: true,
	}}}
	if err := ld.RegisterModel(1, "bias-decides", q); err != nil {
		t.Fatal(err)
	}
	input := []fixed.Code{10, 10, 10, 10}
	res, err := ld.Serve(1, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != 1 {
		t.Fatalf("healthy serve answered class %d, want 1", res.Class)
	}

	ld.DRAM.SetReadFault(func(key string, blob []byte) ([]byte, bool) {
		return blob, !strings.HasSuffix(key, "/bias")
	})
	if res, err := ld.Serve(1, input); err == nil {
		t.Fatalf("faulted bias read served class %d with no error", res.Class)
	}
	if _, _, err := ld.ServeBatch(1, [][]fixed.Code{input, input}); err == nil {
		t.Fatal("faulted bias read served a batch with no error")
	}
	if got := ld.DRAM.FaultedReads(); got != 2 {
		t.Fatalf("FaultedReads = %d, want 2", got)
	}

	// A read that comes back short is as bad as one that fails: the engine
	// would skip the bias on the rows past the blob's end.
	ld.DRAM.SetReadFault(func(key string, blob []byte) ([]byte, bool) {
		if strings.HasSuffix(key, "/bias") {
			return blob[:2], true
		}
		return blob, true
	})
	if res, err := ld.Serve(1, input); err == nil {
		t.Fatalf("short bias read served class %d with no error", res.Class)
	}
}

func mustWidth(t *testing.T, ld *Loader, id uint16) int {
	t.Helper()
	mc, ok := ld.Model(id)
	if !ok {
		t.Fatalf("model %d not registered", id)
	}
	return mc.Layers[0].In
}
