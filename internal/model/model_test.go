package model

import (
	"math"
	"testing"
)

func TestLayerMACs(t *testing.T) {
	if got := fc("f", 784, 300, ReLU).MACs(); got != 784*300 {
		t.Errorf("fc MACs = %d", got)
	}
	c := conv("c", 227, 227, 3, 96, 11, 4, ReLU)
	// (227-11)/4+1 = 55 → 55·55·96·3·11·11.
	want := int64(55*55) * 96 * 3 * 121
	if got := c.MACs(); got != want {
		t.Errorf("conv MACs = %d, want %d", got, want)
	}
	a := Layer{Kind: Attention, D: 1024, Heads: 16, Seq: 128}
	wantA := int64(4*1024*1024*128 + 2*128*128*1024)
	if got := a.MACs(); got != wantA {
		t.Errorf("attention MACs = %d, want %d", got, wantA)
	}
	if (Layer{Kind: MaxPool, H: 10, W: 10, InC: 4, K: 2, S: 2}).MACs() != 0 {
		t.Error("pool should have 0 MACs")
	}
	tok := fc("t", 1024, 4096, GELU)
	tok.Tokens = 128
	if got := tok.MACs(); got != 128*1024*4096 {
		t.Errorf("token-wise fc MACs = %d", got)
	}
}

func TestLayerParams(t *testing.T) {
	if got := fc("f", 100, 10, Softmax).Params(); got != 1010 {
		t.Errorf("fc params = %d", got)
	}
	if got := conv("c", 10, 10, 3, 8, 3, 1, None).Params(); got != 8*3*9+8 {
		t.Errorf("conv params = %d", got)
	}
	e := Layer{Kind: Embedding, Rows: 100, Dim: 8, Lookups: 2}
	if e.Params() != 800 {
		t.Errorf("embedding params = %d", e.Params())
	}
}

func TestPrototypeModelParamCounts(t *testing.T) {
	// §6.3's parameter counts (the paper counts weights without biases
	// for the two N3IC models).
	sec := SecurityModel()
	var secW int64
	for _, l := range sec.Layers {
		secW += int64(l.In) * int64(l.Out)
	}
	if secW != 1568 {
		t.Errorf("security weights = %d, want 1568", secW)
	}
	tc := TrafficClassModel()
	var tcW int64
	for _, l := range tc.Layers {
		tcW += int64(l.In) * int64(l.Out)
	}
	if tcW != 1696 {
		t.Errorf("traffic-classification weights = %d, want 1696", tcW)
	}
	lenet := LeNet300100()
	// ≈266K parameters (paper rounds to 266,200; with biases: 266,610).
	if p := lenet.TotalParams(); p < 266000 || p > 267000 {
		t.Errorf("lenet params = %d, want ≈266K", p)
	}
}

func TestTable6ModelSizes(t *testing.T) {
	// fp32 sizes must land near Table 6's MB column.
	cases := []struct {
		m      *Model
		wantMB float64
		tolPct float64
	}{
		{AlexNet(), 233, 10},
		{ResNet18(), 45, 15},
		{VGG16(), 528, 10},
		{VGG19(), 548, 10},
		{BERTLarge(), 1380, 15},
		{GPT2XL(), 6263, 15},
		{DLRM(), 12400, 1}, // pinned override
	}
	for _, c := range cases {
		got := c.m.SizeMB()
		if math.Abs(got-c.wantMB)/c.wantMB*100 > c.tolPct {
			t.Errorf("%s size = %.0f MB, want ≈%.0f MB", c.m.Name, got, c.wantMB)
		}
	}
}

func TestTable6QuerySizes(t *testing.T) {
	cases := map[string]int{
		"alexnet": 150 * 1024, "bert-large": 5120, "gpt2-xl": 10240, "dlrm": 5120,
	}
	for name, want := range cases {
		if m := simulationModel(t, name); m.QueryBytes != want {
			t.Errorf("%s query = %d, want %d", name, m.QueryBytes, want)
		}
	}
}

func TestTable6DatapathLayers(t *testing.T) {
	// Lightning datapath latency = 193 ns × sequential layers must match
	// Table 6's column.
	cases := map[string]int{
		"alexnet": 8, "resnet18": 21, "vgg16": 16, "vgg19": 19,
		"bert-large": 169, "gpt2-xl": 338, "dlrm": 8,
	}
	for name, want := range cases {
		if got := simulationModel(t, name).SequentialLayers(); got != want {
			t.Errorf("%s sequential layers = %d, want %d", name, got, want)
		}
	}
}

// simulationModel looks a model of §9's zoo up by name.
func simulationModel(t *testing.T, name string) *Model {
	t.Helper()
	for _, m := range SimulationModels() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("model %s missing", name)
	return nil
}

func TestZooOrder(t *testing.T) {
	sims := SimulationModels()
	if len(sims) != 7 {
		t.Fatalf("simulation models = %d, want 7", len(sims))
	}
	wantOrder := []string{"alexnet", "resnet18", "vgg16", "vgg19", "bert-large", "gpt2-xl", "dlrm"}
	for i, m := range sims {
		if m.Name != wantOrder[i] {
			t.Errorf("model %d = %s, want %s", i, m.Name, wantOrder[i])
		}
	}
}

func TestMACOrdering(t *testing.T) {
	// Compute demand must rank sensibly: VGG19 > VGG16 > ResNet18 >
	// AlexNet, and GPT-2 XL > BERT-Large.
	order := []*Model{AlexNet(), ResNet18(), VGG16(), VGG19()}
	for i := 1; i < len(order); i++ {
		if order[i].TotalMACs() <= order[i-1].TotalMACs() {
			t.Errorf("%s MACs (%d) not > %s (%d)",
				order[i].Name, order[i].TotalMACs(), order[i-1].Name, order[i-1].TotalMACs())
		}
	}
	if GPT2XL().TotalMACs() <= BERTLarge().TotalMACs() {
		t.Error("GPT-2 XL should out-compute BERT-Large")
	}
	// DLRM is lookup-dominated: tiny MAC count despite its size.
	if DLRM().TotalMACs() > 10e6 {
		t.Errorf("DLRM MACs = %d, want < 10M", DLRM().TotalMACs())
	}
}

func TestModelString(t *testing.T) {
	s := LeNet300100().String()
	if s == "" || len(s) < 10 {
		t.Errorf("String = %q", s)
	}
}

func TestKindAndActStrings(t *testing.T) {
	if FullyConnected.String() != "fc" || Conv2D.String() != "conv" ||
		MaxPool.String() != "pool" || Attention.String() != "attention" ||
		Embedding.String() != "embedding" || Interaction.String() != "interaction" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
	if ReLU.String() != "relu" || Softmax.String() != "softmax" ||
		GELU.String() != "gelu" || None.String() != "none" {
		t.Error("act names wrong")
	}
}
