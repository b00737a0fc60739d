package dagloader

import (
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

func TestCompileProgramContents(t *testing.T) {
	q, _, _ := trainedAnomalyNet(t)
	mc := Compile(7, "anomaly", q, 4, 2)
	if len(mc.Layers) != 3 {
		t.Fatalf("layers = %d", len(mc.Layers))
	}
	// First layer: fc 32x16, partials = 32/2 = 16 per dot product.
	p0 := mc.Layers[0].Program
	vals := map[string]int64{}
	names := []string{"streamer", "partials", "nlLen", "in", "out", "act", "shift", "last"}
	for i, w := range p0.Writes {
		vals[names[i]] = w.Value
	}
	if vals["streamer"] != 4 || vals["partials"] != 16 || vals["in"] != 32 || vals["out"] != 16 {
		t.Errorf("layer-0 program = %v", vals)
	}
	if vals["last"] != 0 {
		t.Error("layer 0 marked last")
	}
	// Final layer marks last and softmax.
	pl := mc.Layers[2].Program
	lastVal := pl.Writes[len(pl.Writes)-1].Value
	if lastVal != 1 {
		t.Error("final layer not marked last")
	}
	if mc.Layers[2].Activation != datapath.ActSoftmax {
		t.Error("final activation not softmax")
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
	if ld.Models() != 1 {
		t.Error("model not registered")
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
