package datapath

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

func TestReLU(t *testing.T) {
	if ReLU(-5) != 0 || ReLU(0) != 0 || ReLU(7) != 7 {
		t.Error("ReLU wrong")
	}
	v := ReLUVec([]fixed.Acc{-1, 2, -3})
	if v[0] != 0 || v[1] != 2 || v[2] != 0 {
		t.Errorf("ReLUVec = %v", v)
	}
}

func TestSoftmaxSumsToFullScale(t *testing.T) {
	probs := Softmax([]fixed.Acc{10, 20, 30, 5})
	var sum int
	for _, p := range probs {
		sum += int(p)
	}
	if sum < 252 || sum > 258 {
		t.Errorf("softmax sum = %d, want ≈255", sum)
	}
}

func TestSoftmaxOrderPreserved(t *testing.T) {
	in := []fixed.Acc{3, 90, -20, 45}
	probs := Softmax(in)
	if !(probs[1] > probs[3] && probs[3] > probs[0] && probs[0] >= probs[2]) {
		t.Errorf("softmax order broken: %v", probs)
	}
}

func TestSoftmaxMatchesFloat(t *testing.T) {
	// The fixed-point unit must track a float softmax (inputs on the
	// 1/16-per-LSB logit scale) within a few codes.
	in := []fixed.Acc{0, 16, 32, 8} // logits 0, 1, 2, 0.5
	probs := Softmax(in)
	logits := []float64{0, 1, 2, 0.5}
	var denom float64
	for _, l := range logits {
		denom += math.Exp(l)
	}
	for i, l := range logits {
		want := math.Exp(l) / denom * 255
		if math.Abs(float64(probs[i])-want) > 3 {
			t.Errorf("prob[%d] = %d, want ≈%.1f", i, probs[i], want)
		}
	}
}

// TestSoftmaxRoundsHalfUpExactly pins the probability codes' rounding:
// over seeded inputs, every code equals an exact rational reference,
// round half up of e·255/total, where e is round(exp(-d/16)·2^14) of the
// input's distance d below the maximum (0 past the table's 128 entries)
// and total sums e over the inputs.
func TestSoftmaxRoundsHalfUpExactly(t *testing.T) {
	half := big.NewRat(1, 2)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		xs := make([]fixed.Acc, 1+rng.Intn(16))
		spread := 1 + rng.Intn(300)
		for i := range xs {
			xs[i] = fixed.Acc(rng.Intn(2*spread+1) - spread)
		}
		max := xs[0]
		for _, x := range xs {
			if x > max {
				max = x
			}
		}
		es := make([]int64, len(xs))
		var total int64
		for i, x := range xs {
			if d := int64(max) - int64(x); d < 128 {
				es[i] = int64(math.Round(math.Exp(-float64(d)/16) * 16384))
			}
			total += es[i]
		}
		got := Softmax(xs)
		for i, e := range es {
			r := new(big.Rat).Add(big.NewRat(e*255, total), half)
			want := new(big.Int).Quo(r.Num(), r.Denom()) // floor: r is non-negative
			if int64(got[i]) != want.Int64() {
				t.Fatalf("Softmax(%v)[%d] = %d, want %v (round half up of %d·255/%d)", xs, i, got[i], want, e, total)
			}
		}
	}
}

func TestSoftmaxEdgeCases(t *testing.T) {
	if got := Softmax(nil); got != nil {
		t.Errorf("Softmax(nil) = %v", got)
	}
	// A single input gets the full probability mass.
	if got := Softmax([]fixed.Acc{-100}); got[0] != 255 {
		t.Errorf("singleton softmax = %v", got)
	}
	// Extreme spread: winner takes all.
	got := Softmax([]fixed.Acc{0, 10000})
	if got[1] != 255 || got[0] != 0 {
		t.Errorf("extreme softmax = %v", got)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]fixed.Acc{1, 5, 3}) != 1 {
		t.Error("Argmax wrong")
	}
	if Argmax([]fixed.Acc{7, 7}) != 0 {
		t.Error("Argmax tie should pick lowest index")
	}
}

func TestActivationMeta(t *testing.T) {
	if ActReLU.String() != "relu" || ActSoftmax.String() != "softmax" || ActIdentity.String() != "identity" {
		t.Error("activation names wrong")
	}
}

func TestRequantize(t *testing.T) {
	if Requantize(-5, 0) != 0 {
		t.Error("negative should clamp to 0")
	}
	if Requantize(1024, 2) != 255 {
		t.Error("overflow should saturate at 255")
	}
	if Requantize(1000, 2) != 250 {
		t.Errorf("Requantize(1000,2) = %d", Requantize(1000, 2))
	}
	v := RequantizeVec([]fixed.Acc{-1, 512, 100}, 1)
	if v[0] != 0 || v[1] != 255 || v[2] != 50 {
		t.Errorf("RequantizeVec = %v", v)
	}
}
