package photonic

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// liveChain evaluates a lane's transfer the slow way — the two raised-cosine
// evaluations the baked tables stand in for — so the tests can pin the tables
// against it bit for bit.
func liveChain(l *Lane, carrier float64, a, b fixed.Code) float64 {
	i1 := l.Mod1.Modulate(carrier, l.volt1[a])
	return l.Mod2.Modulate(i1, l.volt2[b])
}

// TestTransmitCodesLUTEquivalence sweeps every one of the 256×256 code pairs
// on every lane of a three-lane core — dead lane included — at two carrier
// powers, proving the baked tables bit-identical to the live raised-cosine
// transfer chain: as built, and after each parameter of the modulators'
// state (Vpi, bias, phase, extinction floor, tap) has been moved in turn on
// the first modulator and then the second, with the calibration's drive
// voltages left where they were — the moved operating points a fault leaves
// and the tables must follow. This is the contract that lets the core serve
// every dot from tables: if even one ULP moved, deterministic-replay goldens
// (TestDeterministicCores1) would drift, and a fault would read differently
// from the chain it models.
func TestTransmitCodesLUTEquivalence(t *testing.T) {
	core, err := NewCore(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	lanes := core.Lanes()
	lanes[1].Kill()
	sweep := func(when string) {
		for _, carrier := range []float64{1.0, 0.83} {
			for li, l := range lanes {
				for a := 0; a < 256; a++ {
					for b := 0; b < 256; b++ {
						got := l.TransmitCodes(carrier, fixed.Code(a), fixed.Code(b))
						want := liveChain(l, carrier, fixed.Code(a), fixed.Code(b))
						if l.dead {
							want = 0
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s, lane %d carrier %v codes (%d,%d): tables read %v (bits %#x), live chain %v (bits %#x)",
								when, li, carrier, a, b, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
	sweep("as built")
	moves := []struct {
		name string
		move func(m *MZModulator)
	}{
		{"Vpi", func(m *MZModulator) { m.Vpi += 0.3 }},
		{"bias", func(m *MZModulator) { m.Bias += 0.4 }},
		{"phase", func(m *MZModulator) { m.PhaseOffset -= 0.15 }},
		{"floor", func(m *MZModulator) { m.ExtinctionFloor *= 4 }},
		{"tap", func(m *MZModulator) { m.TapFraction = 0.03 }},
	}
	for _, mv := range moves {
		for mod := range 2 {
			for _, l := range lanes {
				mv.move([2]*MZModulator{l.Mod1, l.Mod2}[mod])
			}
			sweep(fmt.Sprintf("%s moved on modulator %d", mv.name, mod+1))
		}
	}
}

// TestLUTStaleFallsBackToLiveChain injects the silent-corruption faults —
// a bias excursion and a thermal phase walk — directly into the modulators
// and checks that the baked tables do NOT mask them: TransmitCodes reads the
// live (corrupted) chain, so health probes still see the damage, and a
// modulator moved back reads its original bits again.
func TestLUTStaleFallsBackToLiveChain(t *testing.T) {
	core, err := NewCore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := core.Lanes()[0]
	healthy := l.TransmitCodes(1, 200, 200)

	// Bias runaway on the first modulator (what fault.BiasRunaway does).
	l.Mod1.Bias += 0.7
	got := l.TransmitCodes(1, 200, 200)
	want := liveChain(l, 1, 200, 200)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("moved bias read %v, live chain says %v", got, want)
	}
	if got == healthy {
		t.Fatal("bias runaway invisible through TransmitCodes: the tables masked the fault")
	}
	l.Mod1.Bias -= 0.7
	if back := l.TransmitCodes(1, 200, 200); math.Float64bits(back) != math.Float64bits(healthy) {
		t.Fatalf("bias moved back reads %v, %v before it moved", back, healthy)
	}

	// Thermal drift on the second modulator's phase.
	d := NewThermalDrift(0.05, 99)
	for i := 0; i < 50; i++ {
		d.Apply(l.Mod2)
	}
	got = l.TransmitCodes(1, 128, 64)
	want = liveChain(l, 1, 128, 64)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("drifted phase read %v, live chain says %v", got, want)
	}
}

// TestRelockRebakesLUT drifts a lane, relocks it, and checks the tables read
// bit-identical to both the live chain at the new operating point and a
// freshly built lane constructed at the same phase offsets — i.e. the
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
	if err := l.Relock(); err != nil {
		t.Fatal(err)
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
// immediately rather than being frozen at the calibrated power.
func TestCarrierPowerChangeStaysVisible(t *testing.T) {
	core, err := NewCore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := []fixed.Code{210, 190}
	b := []fixed.Code{180, 170}
	before := core.Step(a, b)
	core.SetCarrierPower(0.5)
	after := core.Step(a, b)
	if after >= before*0.75 {
		t.Fatalf("3 dB laser sag invisible through the fast path: %v -> %v", before, after)
	}
}

// kernelMatchesStep fails t unless the kernel on c — PartialsAt's readings
// and ReadoutAt's codes, after the Rebake the engine calls as it opens a
// burst — reads what Step reads, over a group whose steps take every lane
// and whose tail takes one.
func kernelMatchesStep(t *testing.T, c *Core, when string) {
	t.Helper()
	c.Rebake()
	const key = 4<<32 | 2
	n := 64*c.NumLanes() + 1
	rng := rand.New(rand.NewPCG(uint64(n), 5))
	a, b := make([]fixed.Code, n), make([]fixed.Code, n)
	for i := range a {
		a[i], b[i] = fixed.Code(rng.IntN(256)), fixed.Code(rng.IntN(256))
	}
	c.SeekNoiseAt(key, 0)
	want := stepPartials(c, a, b, []int{0, n})
	got, codes := make([]float64, len(want)), make([]fixed.Code, len(want))
	c.PartialsAt(got, a, b, key, 0)
	c.ReadoutAt(codes, c.ReadingsInto(make([]float64, len(want)), a, b), key, 0)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s, %d lanes: step %d reads %v through the kernel, %v through Step", when, c.NumLanes(), i, got[i], want[i])
		}
		if q := converter.Quantize(want[i]); codes[i] != q {
			t.Fatalf("%s, %d lanes: step %d reads out %d, Step's reading rounds to %d", when, c.NumLanes(), i, codes[i], q)
		}
	}
}

// TestFoldFollowsCarrierAndRelock holds the kernels' front tables
// (carrier·g1·tap1, folded) to Step after everything that moves
// a factor in them: a carrier change, a drift of every modulator healed by
// Core.Relock, a drift of one lane's first modulator healed by that lane's
// own Relock, reached through Core.Lanes, and a drift of every modulator
// that no relock heals — on the two-lane kernel and the generic one, and
// again at a new carrier after both relocks.
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
		for i := 0; i < 30; i++ {
			for _, l := range c.Lanes() {
				d.Apply(l.Mod1)
				d.Apply(l.Mod2)
			}
		}
		kernelMatchesStep(t, c, "after a drift never relocked")
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
