package photonic

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// liveChain evaluates a lane's transfer the slow way — the exact expression
// TransmitCodes falls back to when its LUT is stale — so the tests can pin
// the fast path against it bit for bit.
func liveChain(l *Lane, carrier float64, a, b fixed.Code) float64 {
	i1 := l.Mod1.Modulate(carrier, l.volt1[a])
	return l.Mod2.Modulate(i1, l.volt2[b])
}

// TestTransmitCodesLUTEquivalence sweeps every one of the 256×256 code pairs
// on every lane of a three-lane core — dead lane included — at two carrier
// powers, proving the baked-LUT fast path is bit-identical to the live
// raised-cosine transfer chain. This is the contract that lets NewLane and
// Relock bake the tables at all: if even one ULP moved, deterministic-replay
// goldens (TestDeterministicCores1) would drift.
func TestTransmitCodesLUTEquivalence(t *testing.T) {
	core, err := NewCore(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	lanes := core.Lanes()
	lanes[1].Kill()
	for _, carrier := range []float64{1.0, 0.83} {
		for li, l := range lanes {
			if !l.dead && !l.lutValid() {
				t.Fatalf("lane %d: LUT not armed after NewCore", li)
			}
			for a := 0; a < 256; a++ {
				for b := 0; b < 256; b++ {
					got := l.TransmitCodes(carrier, fixed.Code(a), fixed.Code(b))
					want := liveChain(l, carrier, fixed.Code(a), fixed.Code(b))
					if l.dead {
						want = 0
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("lane %d carrier %v codes (%d,%d): LUT path %v (bits %#x) != live chain %v (bits %#x)",
							li, carrier, a, b, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestLUTStaleFallsBackToLiveChain injects the silent-corruption faults —
// a bias excursion and a thermal phase walk — directly into the modulators
// and checks that the armed LUT does NOT mask them: the staleness compare
// must drop TransmitCodes to the live (corrupted) chain, so health probes
// still see the damage.
func TestLUTStaleFallsBackToLiveChain(t *testing.T) {
	core, err := NewCore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := core.Lanes()[0]
	healthy := l.TransmitCodes(1, 200, 200)

	// Bias runaway on the first modulator (what fault.BiasRunaway does).
	l.Mod1.Bias += 0.7
	if l.lutValid() {
		t.Fatal("LUT still valid after bias moved off the baked point")
	}
	got := l.TransmitCodes(1, 200, 200)
	want := liveChain(l, 1, 200, 200)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("stale path returned %v, live chain says %v", got, want)
	}
	if got == healthy {
		t.Fatal("bias runaway invisible through TransmitCodes: LUT masked the fault")
	}
	l.Mod1.Bias -= 0.7
	if !l.lutValid() {
		t.Fatal("LUT should re-validate when the modulator returns to the baked point")
	}

	// Thermal drift on the second modulator's phase.
	d := NewThermalDrift(0.05, 99)
	for i := 0; i < 50; i++ {
		d.Apply(l.Mod2)
	}
	if l.lutValid() {
		t.Fatal("LUT still valid after phase drift")
	}
	got = l.TransmitCodes(1, 128, 64)
	want = liveChain(l, 1, 128, 64)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("drifted path returned %v, live chain says %v", got, want)
	}
}

// TestRelockRebakesLUT drifts a lane, relocks it, and checks the fast path
// re-arms bit-identical to both the live chain at the new operating point
// and a freshly built lane constructed at the same phase offsets — i.e. the
// re-bake reproduces exactly what a from-scratch calibration would.
func TestRelockRebakesLUT(t *testing.T) {
	core, err := NewCore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := core.Lanes()[1]
	d := NewThermalDrift(0.08, 7)
	for i := 0; i < 30; i++ {
		d.Apply(l.Mod1)
		d.Apply(l.Mod2)
	}
	if l.lutValid() {
		t.Fatal("LUT survived a drift burst")
	}
	if err := l.Relock(); err != nil {
		t.Fatal(err)
	}
	if !l.lutValid() {
		t.Fatal("Relock did not re-arm the LUT")
	}
	fresh, err := NewLane(l.Lambda, l.Mod1.PhaseOffset, l.Mod2.PhaseOffset)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 256; a += 5 {
		for b := 0; b < 256; b += 7 {
			got := l.TransmitCodes(1, fixed.Code(a), fixed.Code(b))
			want := liveChain(l, 1, fixed.Code(a), fixed.Code(b))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("relocked LUT codes (%d,%d): %v != live %v", a, b, got, want)
			}
			ref := fresh.TransmitCodes(1, fixed.Code(a), fixed.Code(b))
			if math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("relocked lane codes (%d,%d): %v != freshly calibrated lane %v", a, b, got, ref)
			}
		}
	}
}

// TestCarrierPowerChangeStaysVisible pins the laser-sag semantics: carrier
// power is not baked into the LUTs (Step multiplies the live carrier, and
// the kernels' front tables are refolded at it), so a sag scales readings
// immediately — with the fast path still armed — rather than being frozen at
// the calibrated power.
func TestCarrierPowerChangeStaysVisible(t *testing.T) {
	core, err := NewCore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := []fixed.Code{210, 190}
	b := []fixed.Code{180, 170}
	before := core.Step(a, b)
	core.SetCarrierPower(0.5)
	if !core.LUTsValid() {
		t.Fatal("carrier power must not invalidate the LUTs: it is not a modulator operating point")
	}
	after := core.Step(a, b)
	if after >= before*0.75 {
		t.Fatalf("3 dB laser sag invisible through the fast path: %v -> %v", before, after)
	}
}

// kernelMatchesStep fails t unless the fast path on c — PartialsAt's
// readings and ReadoutAt's codes — reads what Step's live chain reads, over
// a group whose steps take every lane and whose tail takes one.
func kernelMatchesStep(t *testing.T, c *Core, when string) {
	t.Helper()
	if !c.LUTsValid() {
		t.Fatalf("%s: LUTs not armed", when)
	}
	const key = 4<<32 | 2
	n := 64*c.NumLanes() + 1
	rng := rand.New(rand.NewPCG(uint64(n), 5))
	a, b := make([]fixed.Code, n), make([]fixed.Code, n)
	for i := range a {
		a[i], b[i] = fixed.Code(rng.IntN(256)), fixed.Code(rng.IntN(256))
	}
	c.SeekNoise(key)
	want := stepPartials(c, a, b, []int{0, n})
	got, codes := make([]float64, len(want)), make([]fixed.Code, len(want))
	c.PartialsAt(got, a, b, key, 0)
	c.ReadoutAt(codes, c.ReadingsInto(make([]float64, len(want)), a, b), key, 0)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s, %d lanes: step %d reads %v on the fast path, %v through Step", when, c.NumLanes(), i, got[i], want[i])
		}
		if q := converter.Quantize(want[i]); codes[i] != q {
			t.Fatalf("%s, %d lanes: step %d reads out %d, Step's reading rounds to %d", when, c.NumLanes(), i, codes[i], q)
		}
	}
}

// TestFoldFollowsCarrierAndRelock holds the kernels' front tables
// (carrier·g1·tap1, folded) to Step's live chain after everything that moves
// a factor in them: a carrier change, a drift of every modulator healed by
// Core.Relock, and a drift of one lane's first modulator healed by that
// lane's own Relock, reached through Core.Lanes — on the two-lane kernel and
// the generic one, and again at a new carrier after both relocks.
func TestFoldFollowsCarrierAndRelock(t *testing.T) {
	for lanes := 2; lanes <= 3; lanes++ {
		c, err := NewCore(lanes, PrototypeNoise(5))
		if err != nil {
			t.Fatal(err)
		}
		c.FullScaleLanes = lanes
		kernelMatchesStep(t, c, "as built")
		c.SetCarrierPower(0.61)
		kernelMatchesStep(t, c, "after SetCarrierPower")
		d := NewThermalDrift(0.08, 3)
		for i := 0; i < 30; i++ {
			for _, l := range c.Lanes() {
				d.Apply(l.Mod1)
				d.Apply(l.Mod2)
			}
		}
		if err := c.Relock(); err != nil {
			t.Fatal(err)
		}
		kernelMatchesStep(t, c, "after Core.Relock")
		l := c.Lanes()[1]
		for i := 0; i < 30; i++ {
			d.Apply(l.Mod1)
		}
		if err := l.Relock(); err != nil {
			t.Fatal(err)
		}
		kernelMatchesStep(t, c, "after a lane's Relock")
		c.SetCarrierPower(1.3)
		kernelMatchesStep(t, c, "after a second SetCarrierPower")
	}
}

// TestStepZeroAllocs guards the hot path: one analog step on an armed core
// (noise model present) must not touch the heap.
func TestStepZeroAllocs(t *testing.T) {
	core, err := NewCore(2, CalibratedNoise(1))
	if err != nil {
		t.Fatal(err)
	}
	a := []fixed.Code{10, 20}
	b := []fixed.Code{30, 40}
	var sink float64
	if n := testing.AllocsPerRun(200, func() {
		sink += core.Step(a, b)
	}); n != 0 {
		t.Fatalf("Core.Step allocates %v times per call, want 0", n)
	}
	_ = sink
}

// TestDotPartialsIntoZeroAllocs guards the vector hot path: with caller-
// owned storage at capacity, a full dot product must not allocate.
func TestDotPartialsIntoZeroAllocs(t *testing.T) {
	core, err := NewCore(2, CalibratedNoise(1))
	if err != nil {
		t.Fatal(err)
	}
	a := make([]fixed.Code, 256)
	b := make([]fixed.Code, 256)
	for i := range a {
		a[i], b[i] = fixed.Code(i), fixed.Code(255-i)
	}
	dst := make([]float64, 0, 128)
	if n := testing.AllocsPerRun(100, func() {
		dst = core.DotPartialsInto(dst[:0], a, b)
	}); n != 0 {
		t.Fatalf("DotPartialsInto allocates %v times per call, want 0", n)
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		sink += core.Dot(a, b)
	}); n != 0 {
		t.Fatalf("Dot allocates %v times per call, want 0", n)
	}
	_ = sink
}
