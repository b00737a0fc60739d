package dagloader

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/datapath"
	"github.com/lightning-smartnic/lightning/internal/dataset"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/mem"
	"github.com/lightning-smartnic/lightning/internal/nn"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

func newLoader(t *testing.T) *Loader {
	t.Helper()
	core, err := photonic.NewCore(2, photonic.CalibratedNoise(3))
	if err != nil {
		t.Fatal(err)
	}
	return NewLoader(datapath.NewEngine(core, 5), mem.New(mem.DDR4Spec(), 5))
}

func trainedAnomalyNet(t *testing.T) (*nn.QuantizedNetwork, *dataset.Set, *dataset.Set) {
	t.Helper()
	set := dataset.Anomaly(600, 21)
	train, test := set.Split(0.8)
	n := nn.New(4, dataset.FlowFeatureWidth, 16, 8, 2)
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 12
	n.Train(train, cfg)
	return nn.Quantize(n, train), train, test
}

func TestBiasCodecRoundTrip(t *testing.T) {
	b := []fixed.Acc{0, -1, 32767, -32768, 42}
	got := DecodeBias(EncodeBias(b))
	for i := range b {
		if got[i] != b[i] {
			t.Errorf("bias[%d] = %d, want %d", i, got[i], b[i])
		}
	}
}

// TestCompileLayerConfigs: Compile's one LayerConfig per layer carries the
// layer's geometry, its non-linearity (softmax on the final layer only, which
// is how ServeBatch finds where results fire), its requantization shift, and
// DRAM keys that name the model by wire ID and the layer by index.
func TestCompileLayerConfigs(t *testing.T) {
	q, _, _ := trainedAnomalyNet(t)
	mc := Compile(7, "anomaly", q)
	if mc.ID != 7 || mc.Name != "anomaly" || len(mc.Layers) != len(q.Layers) {
		t.Fatalf("compiled model %d %q with %d layers, want 7 \"anomaly\" with %d", mc.ID, mc.Name, len(mc.Layers), len(q.Layers))
	}
	wantIO := [][2]int{{dataset.FlowFeatureWidth, 16}, {16, 8}, {8, 2}}
	for l, lc := range mc.Layers {
		ql := q.Layers[l]
		act := datapath.ActReLU
		if l == len(mc.Layers)-1 {
			act = datapath.ActSoftmax
		}
		if ql.Final != (act == datapath.ActSoftmax) {
			t.Fatalf("layer %d: Final = %v, but the anomaly net's last layer alone is final", l, ql.Final)
		}
		if lc.In != wantIO[l][0] || lc.Out != wantIO[l][1] {
			t.Errorf("layer %d: %dx%d, want %dx%d", l, lc.In, lc.Out, wantIO[l][0], wantIO[l][1])
		}
		if lc.Activation != act || lc.Shift != ql.Shift {
			t.Errorf("layer %d: activation %v shift %d, want %v shift %d", l, lc.Activation, lc.Shift, act, ql.Shift)
		}
		wk := fmt.Sprintf("model7-anomaly/layer%d/weights", l)
		bk := fmt.Sprintf("model7-anomaly/layer%d/bias", l)
		if lc.WeightsKey != wk || lc.BiasKey != bk {
			t.Errorf("layer %d: keys %q %q, want %q %q", l, lc.WeightsKey, lc.BiasKey, wk, bk)
		}
	}
}

func TestRegisterSameNameDistinctIDs(t *testing.T) {
	// Two models may share a display name; their DRAM weights must not
	// collide (keys include the wire ID).
	ld := newLoader(t)
	qa, _, testA := trainedAnomalyNet(t)
	setB := dataset.IoTTraffic(300, 77)
	nb := nn.New(3, dataset.FlowFeatureWidth, 8, 10)
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 5
	nb.Train(setB, cfg)
	qb := nn.Quantize(nb, setB)
	if err := ld.RegisterModel(1, "same-name", qa); err != nil {
		t.Fatal(err)
	}
	if err := ld.RegisterModel(2, "same-name", qb); err != nil {
		t.Fatal(err)
	}
	// Both still serve with their own weights.
	if _, err := ld.Serve(1, testA.Examples[0].X); err != nil {
		t.Errorf("model 1 broken by name collision: %v", err)
	}
	if _, err := ld.Serve(2, setB.Examples[0].X); err != nil {
		t.Errorf("model 2 broken by name collision: %v", err)
	}
}

func TestRegisterAndServe(t *testing.T) {
	ld := newLoader(t)
	q, _, test := trainedAnomalyNet(t)
	if err := ld.RegisterModel(1, "anomaly", q); err != nil {
		t.Fatal(err)
	}
	if _, ok := ld.Model(1); !ok {
		t.Error("Model lookup failed")
	}
	// Serving through the photonic pipeline must track the 8-bit digital
	// reference closely (§6.3: photonic accuracy within ~1% of digital).
	n := 60
	agree := 0
	for i := 0; i < n; i++ {
		res, err := ld.Serve(1, test.Examples[i].X)
		if err != nil {
			t.Fatal(err)
		}
		digital, _ := q.Infer(test.Examples[i].X)
		if res.Class == digital {
			agree++
		}
		if len(res.Probs) != 2 {
			t.Fatalf("probs = %v", res.Probs)
		}
		if res.Stats.PhotonicSteps == 0 {
			t.Fatal("no photonic work recorded")
		}
	}
	if frac := float64(agree) / float64(n); frac < 0.9 {
		t.Errorf("photonic/digital agreement = %.2f, want > 0.9", frac)
	}
	if ld.Reconfigurations != uint64(n*3) {
		t.Errorf("reconfigurations = %d, want %d", ld.Reconfigurations, n*3)
	}
}

func TestServeErrors(t *testing.T) {
	ld := newLoader(t)
	if _, err := ld.Serve(9, make([]fixed.Code, 4)); err == nil {
		t.Error("unknown model served")
	}
	q, _, _ := trainedAnomalyNet(t)
	if err := ld.RegisterModel(1, "anomaly", q); err != nil {
		t.Fatal(err)
	}
	if err := ld.RegisterModel(1, "again", q); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := ld.Serve(1, make([]fixed.Code, 5)); err == nil {
		t.Error("wrong input width accepted")
	}
}

func TestUpdateModelSwapsParameters(t *testing.T) {
	ld := newLoader(t)
	qa, _, test := trainedAnomalyNet(t)
	if err := ld.RegisterModel(1, "anomaly", qa); err != nil {
		t.Fatal(err)
	}
	dramBefore := ld.DRAM.Used()
	// Same-architecture update must not leak DRAM: the old blobs are
	// freed before the new ones land.
	if err := ld.UpdateModel(1, qa); err != nil {
		t.Fatal(err)
	}
	if got := ld.DRAM.Used(); got != dramBefore {
		t.Errorf("same-size update changed DRAM use: %d → %d", dramBefore, got)
	}
	// Retrain a different-architecture replacement (PCIe model update).
	set2 := dataset.Anomaly(400, 99)
	n2 := nn.New(7, dataset.FlowFeatureWidth, 24, 2)
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 10
	n2.Train(set2, cfg)
	qb := nn.Quantize(n2, set2)
	if err := ld.UpdateModel(1, qb); err != nil {
		t.Fatal(err)
	}
	// Serving continues and now matches the NEW model's digital reference.
	agree := 0
	for i := 0; i < 20; i++ {
		res, err := ld.Serve(1, test.Examples[i].X)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := qb.Infer(test.Examples[i].X)
		if res.Class == d {
			agree++
		}
	}
	if agree < 16 {
		t.Errorf("post-update agreement = %d/20", agree)
	}
	if err := ld.UpdateModel(42, qb); err == nil {
		t.Error("update of unregistered model accepted")
	}
}

func TestRuntimeReconfigurationBetweenModels(t *testing.T) {
	// §5.4's scenario: packets for different models interleave; the loader
	// reconfigures between them and both keep answering correctly.
	ld := newLoader(t)
	qa, _, testA := trainedAnomalyNet(t)
	setB := dataset.IoTTraffic(400, 31)
	trainB, testB := setB.Split(0.8)
	nb := nn.New(8, dataset.FlowFeatureWidth, 16, 10)
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 12
	nb.Train(trainB, cfg)
	qb := nn.Quantize(nb, trainB)

	if err := ld.RegisterModel(1, "anomaly", qa); err != nil {
		t.Fatal(err)
	}
	if err := ld.RegisterModel(2, "iot", qb); err != nil {
		t.Fatal(err)
	}
	agreeA, agreeB := 0, 0
	rounds := 25
	for i := 0; i < rounds; i++ {
		ra, err := ld.Serve(1, testA.Examples[i].X)
		if err != nil {
			t.Fatal(err)
		}
		da, _ := qa.Infer(testA.Examples[i].X)
		if ra.Class == da {
			agreeA++
		}
		rb, err := ld.Serve(2, testB.Examples[i].X)
		if err != nil {
			t.Fatal(err)
		}
		db, _ := qb.Infer(testB.Examples[i].X)
		if rb.Class == db {
			agreeB++
		}
	}
	if agreeA < rounds*8/10 || agreeB < rounds*7/10 {
		t.Errorf("interleaved agreement: A=%d/%d B=%d/%d", agreeA, rounds, agreeB, rounds)
	}
}

// TestFailedUpdateKeepsOldModel: a replacement that does not fit in DRAM is
// refused before the old version's blobs are freed, so DRAM use is unchanged
// and the old version still serves byte-identical answers — also on a second
// shard of the store serving through the refused update.
func TestFailedUpdateKeepsOldModel(t *testing.T) {
	ld, q, inputs := smallDRAMLoader(t)
	if err := ld.RegisterModel(1, "anomaly", q); err != nil {
		t.Fatal(err)
	}
	used := ld.DRAM.Used()
	before := serveAll(t, ld, 1, inputs)

	core, err := photonic.NewCore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	shard := NewLoaderWithStore(datapath.NewEngine(core, 5), ld.Store)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			for i, x := range inputs {
				res, err := shard.Serve(1, x)
				if err != nil {
					t.Errorf("serving through the refused update: %v", err)
					return
				}
				res.Stats = datapath.LayerStats{}
				if !reflect.DeepEqual(*res, before[i]) {
					t.Errorf("query %d answered %+v through the refused update, want %+v", i, *res, before[i])
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	err = ld.UpdateModel(1, tooBigNet(t))
	close(done)
	<-exited
	if err == nil {
		t.Fatal("update past DRAM capacity accepted")
	}
	if got := ld.DRAM.Used(); got != used {
		t.Errorf("failed update moved DRAM use %d → %d", used, got)
	}
	if _, ok := ld.Model(1); !ok {
		t.Fatal("failed update unregistered the served model")
	}
	if after := serveAll(t, ld, 1, inputs); !reflect.DeepEqual(after, before) {
		t.Error("old model answers differently after a failed update")
	}
}

// TestFailedRegisterLeaksNoDRAM: a model that does not fit is refused before
// any of its blobs are stored.
func TestFailedRegisterLeaksNoDRAM(t *testing.T) {
	ld, q, _ := smallDRAMLoader(t)
	if err := ld.RegisterModel(1, "anomaly", q); err != nil {
		t.Fatal(err)
	}
	used := ld.DRAM.Used()
	if err := ld.RegisterModel(2, "big", tooBigNet(t)); err == nil {
		t.Fatal("register past DRAM capacity accepted")
	}
	if got := ld.DRAM.Used(); got != used {
		t.Errorf("failed register moved DRAM use %d → %d", used, got)
	}
	if _, ok := ld.Model(2); ok {
		t.Error("failed register left model 2 registered")
	}
	if _, ok := ld.Model(1); !ok {
		t.Error("failed register unregistered model 1")
	}
}

// smallDRAMLoader is a noiseless loader over a 4 KiB DRAM, with the trained
// anomaly net (790 bytes of blobs) and a few of its test inputs.
func smallDRAMLoader(t *testing.T) (*Loader, *nn.QuantizedNetwork, [][]fixed.Code) {
	t.Helper()
	core, err := photonic.NewCore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := mem.DDR4Spec()
	spec.CapacityBytes = 4096
	ld := NewLoader(datapath.NewEngine(core, 5), mem.New(spec, 5))
	q, _, test := trainedAnomalyNet(t)
	var inputs [][]fixed.Code
	for _, ex := range test.Examples[:8] {
		inputs = append(inputs, ex.X)
	}
	return ld, q, inputs
}

// tooBigNet is a 32-64-64-2 net, whose blobs alone exceed 4 KiB.
func tooBigNet(t *testing.T) *nn.QuantizedNetwork {
	t.Helper()
	set := dataset.Anomaly(100, 5)
	return nn.Quantize(nn.New(9, dataset.FlowFeatureWidth, 64, 64, 2), set)
}

func serveAll(t *testing.T, ld *Loader, id uint16, inputs [][]fixed.Code) []Result {
	t.Helper()
	out := make([]Result, len(inputs))
	for i, x := range inputs {
		res, err := ld.Serve(id, x)
		if err != nil {
			t.Fatal(err)
		}
		res.Stats = datapath.LayerStats{}
		out[i] = *res
	}
	return out
}

// TestServeSplitModelMatchesWhole serves a network split by hand into its
// first layer and the rest, as a pipeline partition would be: the first
// stage has no final layer, so it answers Class -1 with its requantized
// activations in Probs, and the second stage, fed those, reproduces the
// whole model's logits, probabilities and class byte for byte.
func TestServeSplitModelMatchesWhole(t *testing.T) {
	q, _, test := trainedAnomalyNet(t)
	head := &nn.QuantizedNetwork{Sizes: q.Sizes[:2], Layers: q.Layers[:1]}
	tail := &nn.QuantizedNetwork{Sizes: q.Sizes[1:], Layers: q.Layers[1:]}
	ld := newNoiselessLoader(t)
	for id, net := range map[uint16]*nn.QuantizedNetwork{1: q, 2: head, 3: tail} {
		if err := ld.RegisterModel(id, fmt.Sprintf("stage%d", id), net); err != nil {
			t.Fatal(err)
		}
	}
	core, err := photonic.NewCore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	twin := datapath.NewEngine(core, 5)
	for i, ex := range test.Examples[:20] {
		whole, err := ld.Serve(1, ex.X)
		if err != nil {
			t.Fatal(err)
		}
		mid, err := ld.Serve(2, ex.X)
		if err != nil {
			t.Fatal(err)
		}
		if mid.Class != -1 || mid.Raw != nil {
			t.Fatalf("query %d: first stage answered class %d raw %v, want -1 and no logits", i, mid.Class, mid.Raw)
		}
		// The first layer alone on a twin engine, ReLU and requantized.
		l0 := head.Layers[0]
		want := twin.ExecuteFCBias(l0.Weights, l0.Bias, ex.X, datapath.ActReLU, l0.Shift).Quantized
		if !reflect.DeepEqual(mid.Probs, want) {
			t.Fatalf("query %d: first stage activations %v, want %v", i, mid.Probs, want)
		}
		last, err := ld.Serve(3, mid.Probs)
		if err != nil {
			t.Fatal(err)
		}
		if last.Class != whole.Class || !reflect.DeepEqual(last.Raw, whole.Raw) || !reflect.DeepEqual(last.Probs, whole.Probs) {
			t.Fatalf("query %d: split model answered class %d raw %v probs %v, whole model class %d raw %v probs %v",
				i, last.Class, last.Raw, last.Probs, whole.Class, whole.Raw, whole.Probs)
		}
	}
}
