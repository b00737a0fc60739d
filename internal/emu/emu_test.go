package emu

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestTensorAccessors(t *testing.T) {
	x := NewTensor(2, 3, 4)
	x.Set(1, 2, 3, 9.5)
	if x.At(1, 2, 3) != 9.5 {
		t.Error("At/Set mismatch")
	}
	if x.Len() != 24 {
		t.Errorf("Len = %d", x.Len())
	}
}

func TestConvOpKnownValues(t *testing.T) {
	// 2×2 input, one channel, 2×2 kernel of ones: output = sum of inputs.
	op := &ConvOp{Label: "c", InC: 1, OutC: 1, K: 2, S: 1,
		W: []float64{1, 1, 1, 1}, B: []float64{0.5}}
	in := NewTensor(2, 2, 1)
	copy(in.Data, []float64{1, 2, 3, 4})
	ctx := &evalCtx{scheme: SchemeFP32}
	out := op.Apply(in, ctx)
	if out.H != 1 || out.W != 1 || out.C != 1 {
		t.Fatalf("shape = %d,%d,%d", out.H, out.W, out.C)
	}
	if out.Data[0] != 10.5 {
		t.Errorf("conv = %v, want 10.5", out.Data[0])
	}
}

func TestConvOpReLUAndPad(t *testing.T) {
	op := &ConvOp{Label: "c", InC: 1, OutC: 1, K: 3, S: 1, Pad: 1,
		W: []float64{0, 0, 0, 0, -1, 0, 0, 0, 0}, B: []float64{0}, ReLU: true}
	in := NewTensor(2, 2, 1)
	copy(in.Data, []float64{1, 2, 3, 4})
	out := op.Apply(in, &evalCtx{scheme: SchemeFP32})
	// Same padding preserves shape; -identity kernel then ReLU zeroes all.
	if out.H != 2 || out.W != 2 {
		t.Fatalf("padded shape = %d,%d", out.H, out.W)
	}
	for _, v := range out.Data {
		if v != 0 {
			t.Errorf("ReLU output = %v", v)
		}
	}
}

func TestConvOpPanicsOnChannelMismatch(t *testing.T) {
	op := &ConvOp{Label: "c", InC: 2, OutC: 1, K: 1, S: 1, W: []float64{1, 1}, B: []float64{0}}
	defer func() {
		if recover() == nil {
			t.Error("channel mismatch accepted")
		}
	}()
	op.Apply(NewTensor(1, 1, 1), &evalCtx{})
}

func TestPoolOp(t *testing.T) {
	op := &PoolOp{Label: "p", K: 2, S: 2}
	in := NewTensor(4, 4, 1)
	for i := range in.Data {
		in.Data[i] = float64(i)
	}
	out := op.Apply(in, nil)
	if out.H != 2 || out.W != 2 {
		t.Fatalf("pool shape = %d,%d", out.H, out.W)
	}
	// Max of each 2×2 block.
	want := []float64{5, 7, 13, 15}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Errorf("pool[%d] = %v, want %v", i, out.Data[i], want[i])
		}
	}
}

func TestFCOpKnownValues(t *testing.T) {
	op := &FCOp{Label: "f", In: 3, Out: 2,
		W: []float64{1, 0, -1, 0.5, 0.5, 0.5}, B: []float64{0, 1}}
	in := NewTensor(1, 1, 3)
	copy(in.Data, []float64{2, 4, 6})
	out := op.Apply(in, &evalCtx{scheme: SchemeFP32})
	if out.Data[0] != -4 || out.Data[1] != 7 {
		t.Errorf("fc = %v", out.Data)
	}
}

func TestFCOpPanicsOnWidthMismatch(t *testing.T) {
	op := &FCOp{Label: "f", In: 3, Out: 1, W: make([]float64, 3), B: []float64{0}}
	defer func() {
		if recover() == nil {
			t.Error("width mismatch accepted")
		}
	}()
	op.Apply(NewTensor(1, 1, 2), &evalCtx{})
}

func TestQuantizeSnapsToGrid(t *testing.T) {
	ctx := &evalCtx{scheme: SchemeInt8}
	xs := []float64{1.0, -0.501, 0.2501}
	q, scale := ctx.quantize(xs)
	if scale != 1.0 {
		t.Errorf("scale = %v", scale)
	}
	for i, v := range q {
		lsb := 1.0 / 255
		if math.Abs(v-xs[i]) > lsb/2+1e-12 {
			t.Errorf("q[%d] = %v, err too large", i, v)
		}
		// Must sit exactly on the grid.
		g := math.Round(v*255) / 255
		if math.Abs(v-g) > 1e-12 {
			t.Errorf("q[%d] = %v off grid", i, v)
		}
	}
	// FP32 passes through.
	fp := &evalCtx{scheme: SchemeFP32}
	if q2, _ := fp.quantize(xs); &q2[0] != &xs[0] {
		t.Error("fp32 quantize copied")
	}
}

func TestDotNoiseStatistics(t *testing.T) {
	ctx := &evalCtx{
		scheme: SchemePhotonic8,
		noise:  New(1).Noise,
		rng:    rand.New(rand.NewPCG(2, 2)),
	}
	k := 100
	n := 5000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := ctx.dotNoise(k, 1, 1)
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sum2/float64(n) - mean*mean)
	wantMean := float64(k) * 2.32 / 255
	wantStd := 1.65 * 10 / 255
	if math.Abs(mean-wantMean) > wantMean*0.1 {
		t.Errorf("noise mean = %v, want %v", mean, wantMean)
	}
	if math.Abs(std-wantStd) > wantStd*0.15 {
		t.Errorf("noise std = %v, want %v", std, wantStd)
	}
	// Digital schemes add none.
	if (&evalCtx{scheme: SchemeInt8}).dotNoise(10, 1, 1) != 0 {
		t.Error("int8 scheme has noise")
	}
}

func TestTopK(t *testing.T) {
	got := TopK([]float64{0.1, 0.9, 0.5, 0.7}, 3)
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("TopK = %v", got)
		}
	}
	if len(TopK([]float64{1, 2}, 5)) != 2 {
		t.Error("TopK should clamp k")
	}
}

func TestProxyShapesRun(t *testing.T) {
	e := New(3)
	for _, net := range EmulationProxies(7) {
		in := NewTensor(net.InH, net.InW, net.InC)
		for i := range in.Data {
			in.Data[i] = 0.5
		}
		logits := e.Run(net, in, SchemeFP32)
		if len(logits) != net.Classes {
			t.Errorf("%s outputs %d logits, want %d", net.Name, len(logits), net.Classes)
		}
	}
}

func TestProxyDepthStructure(t *testing.T) {
	countConvs := func(n *Net) (convs, fcs int) {
		for _, op := range n.Ops {
			switch op.(type) {
			case *ConvOp:
				convs++
			case *FCOp:
				fcs++
			}
		}
		return convs, fcs
	}
	cases := []struct {
		net   *Net
		convs int
	}{
		{ProxyAlexNet(1), 5},
		{ProxyVGG11(1), 8},
		{ProxyVGG16(1), 13},
		{ProxyVGG19(1), 16},
	}
	for _, c := range cases {
		convs, fcs := countConvs(c.net)
		if convs != c.convs || fcs != 3 {
			t.Errorf("%s: %d convs + %d fcs, want %d + 3", c.net.Name, convs, fcs, c.convs)
		}
	}
}

func TestEvaluateFig19Shape(t *testing.T) {
	// Fig 19's qualitative result under the substitution: fp32 agrees with
	// itself perfectly; 8-bit digital stays close; photonic tracks digital
	// within a few percent.
	e := New(5)
	net := ProxyAlexNet(11)
	res := e.Evaluate(net, 30, 13)
	if res[0].Scheme != SchemeFP32 || res[0].Top1 != 1 || res[0].Top5 != 1 {
		t.Errorf("fp32 reference = %+v", res[0])
	}
	if res[1].Top5 < 0.6 {
		t.Errorf("int8 top-5 agreement = %v, too low", res[1].Top5)
	}
	if res[2].Top5 < res[1].Top5-0.25 {
		t.Errorf("photonic top-5 (%v) fell far below digital-8bit (%v)", res[2].Top5, res[1].Top5)
	}
	if res[2].Top1 > res[0].Top1 {
		t.Error("noisy scheme cannot beat the reference at agreement with it")
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeFP32.String() != "Digital-32bit" || SchemeInt8.String() != "Digital-8bit" ||
		SchemePhotonic8.String() != "Lightning" {
		t.Error("scheme names wrong")
	}
}

func TestRunDeterministicForDigitalSchemes(t *testing.T) {
	net := ProxyVGG11(2)
	in := NewTensor(net.InH, net.InW, net.InC)
	rng := rand.New(rand.NewPCG(1, 1))
	for i := range in.Data {
		in.Data[i] = rng.Float64()
	}
	a := New(1).Run(net, in, SchemeInt8)
	b := New(99).Run(net, in, SchemeInt8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("int8 scheme depends on emulator seed")
		}
	}
}
