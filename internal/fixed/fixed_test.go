package fixed

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestFromUnitEndpoints(t *testing.T) {
	cases := []struct {
		in   float64
		want Code
	}{
		{-1, 0}, {0, 0}, {1, MaxCode}, {2, MaxCode},
		{0.5, 128}, {1.0 / 255, 1},
	}
	for _, c := range cases {
		if got := FromUnit(c.in); got != c.want {
			t.Errorf("FromUnit(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestUnitRoundTrip(t *testing.T) {
	for i := 0; i < Levels; i++ {
		c := Code(i)
		if got := FromUnit(c.Unit()); got != c {
			t.Fatalf("round trip failed for code %d: got %d", i, got)
		}
	}
}

func TestQuantizationErrorBound(t *testing.T) {
	// Property: |x - dequant(quant(x))| <= half an LSB for x in [0,1].
	f := func(x float64) bool {
		x = math.Abs(math.Mod(x, 1))
		err := math.Abs(x - FromUnit(x).Unit())
		return err <= 0.5/MaxCode+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSatAdd(t *testing.T) {
	if got := SatAdd(AccMax, 1); got != AccMax {
		t.Errorf("SatAdd overflow = %d, want %d", got, int(AccMax))
	}
	if got := SatAdd(AccMin, -1); got != AccMin {
		t.Errorf("SatAdd underflow = %d, want %d", got, int(AccMin))
	}
	if got := SatAdd(3, 4); got != 7 {
		t.Errorf("SatAdd(3,4) = %d, want 7", got)
	}
}

func TestSatSub(t *testing.T) {
	if got := SatSub(AccMin, 1); got != AccMin {
		t.Errorf("SatSub underflow = %d, want %d", got, int(AccMin))
	}
	if got := SatSub(AccMax, -1); got != AccMax {
		t.Errorf("SatSub overflow = %d, want %d", got, int(AccMax))
	}
	if got := SatSub(10, 4); got != 6 {
		t.Errorf("SatSub(10,4) = %d, want 6", got)
	}
}

func TestSatAddCommutative(t *testing.T) {
	f := func(a, b int16) bool {
		return SatAdd(Acc(a), Acc(b)) == SatAdd(Acc(b), Acc(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitSignedSign(t *testing.T) {
	if s := SplitSigned(-0.5); !s.Neg || s.Mag != 128 {
		t.Errorf("SplitSigned(-0.5) = %+v", s)
	}
	if s := SplitSigned(0.5); s.Neg || s.Mag != 128 {
		t.Errorf("SplitSigned(0.5) = %+v", s)
	}
	if s := SplitSigned(0); s.Neg || s.Mag != 0 {
		t.Errorf("SplitSigned(0) = %+v", s)
	}
}

func TestSignedValueInverse(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 1) // keep in [-1, 1]
		got := SplitSigned(x).Value()
		return math.Abs(got-x) <= 0.5/MaxCode+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizeVectorRoundTrip(t *testing.T) {
	in := []float64{-1, -0.25, 0, 0.25, 1}
	for i, x := range in {
		if got := SplitSigned(x).Value(); math.Abs(got-x) > 0.5/MaxCode {
			t.Errorf("element %d: got %v want %v", i, got, x)
		}
	}
}

func TestScaleForAllZero(t *testing.T) {
	sc := ScaleFor([]float64{0, 0, 0})
	if sc.Max != 0 {
		t.Fatalf("Max = %v, want 0", sc.Max)
	}
	if s := sc.Quantize(123); s.Mag != 0 || s.Neg {
		t.Errorf("zero-scale quantize = %+v, want zero", s)
	}
}

func TestScaleTensorUsesFullRange(t *testing.T) {
	xs := []float64{0.1, -2.0, 0.7}
	sc := ScaleFor(xs)
	if sc.Max != 2.0 {
		t.Fatalf("scale Max = %v, want 2", sc.Max)
	}
	// The largest-magnitude element must land on the full code.
	if q := sc.Quantize(xs[1]); q.Mag != MaxCode || !q.Neg {
		t.Errorf("max element quantized to %+v, want -255/255", q)
	}
}

func TestScaleQuantizeErrorBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	sc := ScaleFor(xs)
	lsb := sc.Max / MaxCode
	for i, x := range xs {
		if err := math.Abs(sc.Quantize(x).Value()*sc.Max - x); err > lsb/2+1e-9 {
			t.Fatalf("element %d: quantization error %v exceeds half LSB %v", i, err, lsb/2)
		}
	}
}

func TestSignedString(t *testing.T) {
	if got := (Signed{Mag: 128, Neg: true}).String(); got != "-128/255" {
		t.Errorf("String() = %q", got)
	}
	if got := (Signed{Mag: 7}).String(); got != "+7/255" {
		t.Errorf("String() = %q", got)
	}
}
