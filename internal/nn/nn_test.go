package nn

import (
	"math"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/dataset"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

func TestNewShapes(t *testing.T) {
	n := New(1, 4, 8, 3)
	if len(n.W) != 2 {
		t.Fatalf("layers = %d", len(n.W))
	}
	if len(n.W[0]) != 8 || len(n.W[0][0]) != 4 || len(n.W[1]) != 3 {
		t.Error("weight shapes wrong")
	}
	if len(n.B[1]) != 3 {
		t.Error("bias shape wrong")
	}
}

func TestNewPanicsOnTooFewSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with one size accepted")
		}
	}()
	New(1, 5)
}

func TestPredictIsDistribution(t *testing.T) {
	n := New(2, 6, 4, 3)
	p := n.Predict([]float64{0.1, 0.5, 0.9, 0.2, 0.4, 0.6})
	var sum float64
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("probability %v out of range", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestTrainLearnsFlowTask(t *testing.T) {
	set := dataset.Anomaly(600, 9)
	train, test := set.Split(0.8)
	n := New(3, dataset.FlowFeatureWidth, 32, 16, 2)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 15
	loss := n.Train(train, cfg)
	if loss > 0.5 {
		t.Errorf("final loss = %v", loss)
	}
	if acc := n.Accuracy(test); acc < 0.9 {
		t.Errorf("anomaly accuracy = %.2f, want > 0.9", acc)
	}
}

func TestTrainLearnsDigits(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	set := dataset.Digits(1500, 4)
	train, test := set.Split(0.85)
	n := New(5, dataset.DigitSide*dataset.DigitSide, 64, 32, 10)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 20
	n.Train(train, cfg)
	if acc := n.Accuracy(test); acc < 0.9 {
		t.Errorf("digit accuracy = %.2f, want > 0.9", acc)
	}
}

func TestTrainReducesLoss(t *testing.T) {
	set := dataset.IoTTraffic(300, 2)
	n := New(1, dataset.FlowFeatureWidth, 16, 10)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	first := n.Train(set, cfg)
	cfg.Epochs = 10
	later := n.Train(set, cfg)
	if later >= first {
		t.Errorf("loss did not decrease: %v → %v", first, later)
	}
}

func TestVerboseCallback(t *testing.T) {
	set := dataset.Anomaly(50, 1)
	n := New(1, dataset.FlowFeatureWidth, 4, 2)
	calls := 0
	cfg := TrainConfig{Epochs: 3, BatchSize: 16, LR: 0.01, Seed: 1,
		Verbose: func(epoch int, loss float64) { calls++ }}
	n.Train(set, cfg)
	if calls != 3 {
		t.Errorf("verbose calls = %d", calls)
	}
}

func TestNetworkString(t *testing.T) {
	if s := New(1, 2, 3).String(); s != "nn[2 3]" {
		t.Errorf("String = %q", s)
	}
}

func TestQuantizePreservesAccuracy(t *testing.T) {
	set := dataset.Anomaly(800, 12)
	train, test := set.Split(0.75)
	n := New(6, dataset.FlowFeatureWidth, 32, 16, 2)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 15
	n.Train(train, cfg)
	floatAcc := n.Accuracy(test)

	q := Quantize(n, train)
	intAcc := q.Accuracy(test)
	if intAcc < floatAcc-0.05 {
		t.Errorf("8-bit accuracy %.3f fell more than 5%% below float %.3f", intAcc, floatAcc)
	}
}

func TestQuantizedLayerStructure(t *testing.T) {
	set := dataset.Anomaly(100, 3)
	n := New(2, dataset.FlowFeatureWidth, 8, 2)
	q := Quantize(n, set)
	if len(q.Layers) != 2 {
		t.Fatalf("layers = %d", len(q.Layers))
	}
	if q.Layers[0].Final || !q.Layers[1].Final {
		t.Error("Final flags wrong")
	}
	if len(q.Layers[0].Weights) != 8 || len(q.Layers[0].Weights[0]) != dataset.FlowFeatureWidth {
		t.Error("weight shapes wrong")
	}
	// The largest-magnitude weight must quantize to full code.
	foundFull := false
	for _, l := range q.Layers {
		for _, row := range l.Weights {
			for _, w := range row {
				if w.Mag == fixed.MaxCode {
					foundFull = true
				}
			}
		}
	}
	if !foundFull {
		t.Error("no weight uses the full 8-bit range")
	}
}

func TestShiftFor(t *testing.T) {
	cases := map[int64]uint{100: 0, 255: 0, 256: 1, 511: 1, 512: 2, 1 << 16: 9}
	for raw, want := range cases {
		if got := shiftFor(raw); got != want {
			t.Errorf("shiftFor(%d) = %d, want %d", raw, got, want)
		}
		// The invariant that matters: shifted max fits in 8 bits.
		if raw>>shiftFor(raw) > 255 {
			t.Errorf("shiftFor(%d) leaves %d > 255", raw, raw>>shiftFor(raw))
		}
	}
}

func TestClampAcc(t *testing.T) {
	if clampAcc(1e9) != fixed.AccMax || clampAcc(-1e9) != fixed.AccMin || clampAcc(5) != 5 {
		t.Error("clampAcc wrong")
	}
}

func TestInferDeterministic(t *testing.T) {
	set := dataset.IoTTraffic(200, 8)
	n := New(9, dataset.FlowFeatureWidth, 16, 10)
	n.Train(set, TrainConfig{Epochs: 5, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 2})
	q := Quantize(n, set)
	c1, r1 := q.Infer(set.Examples[0].X)
	c2, r2 := q.Infer(set.Examples[0].X)
	if c1 != c2 {
		t.Error("nondeterministic class")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Error("nondeterministic logits")
		}
	}
}
