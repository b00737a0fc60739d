package photonic

import (
	"math"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// batchOperands builds a deterministic operand sequence of the given group
// lengths, returning the flat operand vectors and the group bounds.
func batchOperands(groupLens []int) (a, b []fixed.Code, bounds []int) {
	bounds = []int{0}
	for g, n := range groupLens {
		for i := 0; i < n; i++ {
			a = append(a, fixed.Code((g*37+i*11+1)%256))
			b = append(b, fixed.Code((255-g*19-i*7)%256))
		}
		bounds = append(bounds, len(a))
	}
	return a, b, bounds
}

// TestDotPartialsBatchIntoMatchesSerial pins the batching contract at the
// core: one batch pass over G groups produces, bit for bit, the partials of
// G serial DotPartialsInto calls issued back to back — noise model included,
// because the batch pass performs the same analog steps in the same stream
// order and therefore draws the same noise samples.
func TestDotPartialsBatchIntoMatchesSerial(t *testing.T) {
	groupLens := []int{7, 0, 16, 3, 1, 32}
	a, b, bounds := batchOperands(groupLens)

	serialCore, err := NewCore(2, CalibratedNoise(5))
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for g := 0; g+1 < len(bounds); g++ {
		want = append(want, serialCore.DotPartials(a[bounds[g]:bounds[g+1]], b[bounds[g]:bounds[g+1]])...)
	}

	batchCore, err := NewCore(2, CalibratedNoise(5))
	if err != nil {
		t.Fatal(err)
	}
	got := batchCore.DotPartialsBatchInto(nil, a, b, bounds)

	if len(got) != len(want) {
		t.Fatalf("batch pass produced %d partials, serial %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("partial %d: batch %v != serial %v", i, got[i], want[i])
		}
	}
	if serialCore.Steps != batchCore.Steps {
		t.Fatalf("step counts diverged: serial %d, batch %d", serialCore.Steps, batchCore.Steps)
	}
}

// TestDotPartialsBatchIntoStaleLUTFallback moves a modulator off its baked
// operating point and checks the batch pass drops to the live transfer
// chain — the whole batch sees the fault, exactly as serial calls would.
func TestDotPartialsBatchIntoStaleLUTFallback(t *testing.T) {
	a, b, bounds := batchOperands([]int{8, 8})

	mk := func() *Core {
		c, err := NewCore(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Lanes()[0].Mod1.Bias += 0.7 // silent corruption: LUT must not mask it
		if c.lutsValid() {
			t.Fatal("LUT still valid after bias moved off the baked point")
		}
		return c
	}
	serial := mk()
	var want []float64
	for g := 0; g+1 < len(bounds); g++ {
		want = append(want, serial.DotPartials(a[bounds[g]:bounds[g+1]], b[bounds[g]:bounds[g+1]])...)
	}
	got := mk().DotPartialsBatchInto(nil, a, b, bounds)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("stale partial %d: batch %v != serial %v", i, got[i], want[i])
		}
	}
}

// TestDotPartialsBatchIntoZeroAllocs guards the batched photonic hot path:
// with caller-owned storage of sufficient capacity, a batch pass must not
// allocate.
func TestDotPartialsBatchIntoZeroAllocs(t *testing.T) {
	a, b, bounds := batchOperands([]int{64, 64, 64, 64})
	core, err := NewCore(2, CalibratedNoise(9))
	if err != nil {
		t.Fatal(err)
	}
	dst := core.DotPartialsBatchInto(nil, a, b, bounds) // warm-up sizes dst
	if n := testing.AllocsPerRun(100, func() {
		dst = core.DotPartialsBatchInto(dst, a, b, bounds)
	}); n != 0 {
		t.Fatalf("DotPartialsBatchInto allocates %v times per call with warm storage, want 0", n)
	}
}
