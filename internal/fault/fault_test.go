package fault

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/mem"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

func newTestCore(t *testing.T) *photonic.Core {
	t.Helper()
	c, err := photonic.NewCore(2, nil)
	if err != nil {
		t.Fatalf("NewCore: %v", err)
	}
	return c
}

// recordingApplier records injections instead of touching hardware.
type recordingApplier struct {
	mu    sync.Mutex
	calls []Event[Fault]
	fail  func(shard int, f Fault) error
}

func (a *recordingApplier) InjectFault(shard int, f Fault) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls = append(a.calls, Event[Fault]{Unit: shard, Fault: f})
	if a.fail != nil {
		return a.fail(shard, f)
	}
	return nil
}

func TestPlanEventsSortedStable(t *testing.T) {
	p := NewPlan().
		At(30, 0, DeadLane{Lane: 0}).
		At(10, 1, LaserSag{Factor: 0.5}).
		At(10, 2, BiasRunaway{Lane: 0, DeltaVolts: 1}).
		At(5, 0, DeadLane{Lane: 1})
	ev := p.Events()
	steps := make([]uint64, len(ev))
	for i, e := range ev {
		steps[i] = e.Step
	}
	if want := []uint64{5, 10, 10, 30}; !reflect.DeepEqual(steps, want) {
		t.Fatalf("steps = %v, want %v", steps, want)
	}
	// Same-step events keep insertion order: LaserSag (shard 1) before
	// BiasRunaway (shard 2).
	if ev[1].Unit != 1 || ev[2].Unit != 2 {
		t.Fatalf("same-step order not stable: shards %d, %d", ev[1].Unit, ev[2].Unit)
	}
}

func TestScatterDeterministic(t *testing.T) {
	mk := func(i int) Fault { return BiasRunaway{Lane: i % 2, DeltaVolts: 1} }
	a := NewPlan().Scatter(7, 20, 1000, 4, mk).Events()
	b := NewPlan().Scatter(7, 20, 1000, 4, mk).Events()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := NewPlan().Scatter(8, 20, 1000, 4, mk).Events()
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	for _, e := range a {
		if e.Step >= 1000 {
			t.Fatalf("event step %d outside window", e.Step)
		}
		if e.Unit < 0 || e.Unit >= 4 {
			t.Fatalf("event shard %d outside range", e.Unit)
		}
	}
}

func TestRunnerFiresInStepOrder(t *testing.T) {
	p := NewPlan().
		At(0, 0, DeadLane{Lane: 0}).
		At(3, 1, LaserSag{Factor: 0.5}).
		At(3, 2, DeadLane{Lane: 1}).
		At(10, 0, BiasRunaway{Lane: 0, DeltaVolts: 2})
	a := &recordingApplier{}
	r := NewRunner(p, a)

	if got := r.Advance(1); len(got) != 1 || got[0].Event.Step != 0 {
		t.Fatalf("Advance(1) fired %v, want the step-0 event", got)
	}
	if got := r.Advance(1); len(got) != 0 {
		t.Fatalf("Advance to 2 fired %v, want none", got)
	}
	if got := r.Advance(5); len(got) != 2 {
		t.Fatalf("Advance to 7 fired %d events, want both step-3 events", len(got))
	}
	if r.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", r.Pending())
	}
	if got := r.Advance(100); len(got) != 1 || got[0].Event.Step != 10 {
		t.Fatalf("final Advance fired %v, want the step-10 event", got)
	}
	if r.Clock() != 107 {
		t.Fatalf("Clock = %d, want 107", r.Clock())
	}
	if len(r.Fired()) != 4 || len(a.calls) != 4 {
		t.Fatalf("fired %d / applied %d, want 4 / 4", len(r.Fired()), len(a.calls))
	}
}

func TestRunnerKeepsGoingPastInjectionErrors(t *testing.T) {
	p := NewPlan().
		At(1, 0, DeadLane{Lane: 99}).
		At(2, 0, LaserSag{Factor: 0.5})
	core := newTestCore(t)
	a := &recordingApplier{fail: func(shard int, f Fault) error {
		return f.Apply(Target{Core: core})
	}}
	fired := NewRunner(p, a).Advance(5)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if fired[0].Err == nil {
		t.Fatal("misaimed dead-lane fault should report an error")
	}
	if fired[1].Err != nil {
		t.Fatalf("laser sag errored: %v", fired[1].Err)
	}
}

func TestBiasRunawayShiftsReadings(t *testing.T) {
	core := newTestCore(t)
	a := []fixed.Code{128, 128}
	b := []fixed.Code{128, 128}
	before := core.Step(a, b)
	if err := (BiasRunaway{Lane: 0, DeltaVolts: 2}).Apply(Target{Core: core}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	after := core.Step(a, b)
	if math.Abs(after-before) < 1 {
		t.Fatalf("bias runaway barely moved the reading: %.2f -> %.2f", before, after)
	}
}

// TestBiasRunawayRelockHeals is the calibration-LUT regression pair to
// TestBiasRunawayShiftsReadings: between injection and relock every reading
// is the live (corrupted) transfer's — the tables follow the moved modulator
// and must not serve stale healthy values — and Relock's re-bake restores
// readings to the healthy operating point.
func TestBiasRunawayRelockHeals(t *testing.T) {
	core := newTestCore(t)
	a := []fixed.Code{200, 150}
	b := []fixed.Code{180, 210}
	before := core.Step(a, b)
	if err := (BiasRunaway{Lane: 0, DeltaVolts: 1.5}).Apply(Target{Core: core}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	corrupted := core.Step(a, b)
	if math.Abs(corrupted-before) < 1 {
		t.Fatalf("bias runaway masked by the transmission LUTs: %.2f -> %.2f", before, corrupted)
	}
	if err := core.Relock(); err != nil {
		t.Fatalf("Relock: %v", err)
	}
	healed := core.Step(a, b)
	if math.Abs(healed-before) > 1 {
		t.Fatalf("relock did not heal bias runaway: %.2f, want ≈ %.2f", healed, before)
	}
}

func TestLaserSagShrinksReadingsAndRelockHeals(t *testing.T) {
	core := newTestCore(t)
	a := []fixed.Code{255, 255}
	b := []fixed.Code{255, 255}
	before := core.Step(a, b)
	if err := (LaserSag{Factor: 0.5}).Apply(Target{Core: core}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	sagged := core.Step(a, b)
	if sagged > before*0.7 {
		t.Fatalf("sagged reading %.2f not clearly below %.2f", sagged, before)
	}
	if err := core.Relock(); err != nil {
		t.Fatalf("Relock: %v", err)
	}
	healed := core.Step(a, b)
	if math.Abs(healed-before) > 1 {
		t.Fatalf("relock did not heal sag: %.2f, want ≈ %.2f", healed, before)
	}
}

// TestLaserSagReachesTheKernel injects the sag as the fault runner does and
// holds the kernel — its readings and its readout's codes — to Step at the
// sagged carrier, and again once Relock has renormalized the decode at it.
func TestLaserSagReachesTheKernel(t *testing.T) {
	core, err := photonic.NewCore(2, photonic.PrototypeNoise(9))
	if err != nil {
		t.Fatal(err)
	}
	core.FullScaleLanes = 2
	if err := (LaserSag{Factor: 0.55}).Apply(Target{Core: core}); err != nil {
		t.Fatal(err)
	}
	if core.CarrierPower() != 0.55 {
		t.Fatalf("carrier %v after the sag, want 0.55", core.CarrierPower())
	}
	kernelMatchesStep(t, core, "sagged")
	if err := core.Relock(); err != nil {
		t.Fatal(err)
	}
	kernelMatchesStep(t, core, "sagged and relocked")
}

// kernelMatchesStep fails t unless core's kernel reads and reads out what
// its Step reads, over a group of 129 operands at one noise key.
func kernelMatchesStep(t *testing.T, core *photonic.Core, when string) {
	t.Helper()
	const key = 6<<32 | 1
	a, b := make([]fixed.Code, 129), make([]fixed.Code, 129)
	for i := range a {
		a[i], b[i] = fixed.Code(i*37+5), fixed.Code(255-i*11)
	}
	core.SeekNoiseAt(key, 0)
	var want []float64
	for lo := 0; lo < len(a); lo += 2 {
		hi := min(lo+2, len(a))
		want = append(want, core.Step(a[lo:hi], b[lo:hi]))
	}
	got, codes := make([]float64, len(want)), make([]fixed.Code, len(want))
	core.PartialsAt(got, a, b, key, 0)
	core.ReadoutAt(codes, core.ReadingsInto(make([]float64, len(want)), a, b), key, 0)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) || codes[i] != converter.Quantize(want[i]) {
			t.Fatalf("%s: step %d reads %v (code %d) through the kernel, %v through Step", when, i, got[i], codes[i], want[i])
		}
	}
}

func TestLaserSagRejectsNonPositiveFactor(t *testing.T) {
	if err := (LaserSag{Factor: 0}).Apply(Target{Core: newTestCore(t)}); err == nil {
		t.Fatal("factor 0 accepted")
	}
}

func TestDeadLaneZeroesLaneAndBlocksRelock(t *testing.T) {
	core := newTestCore(t)
	if err := (DeadLane{Lane: 1}).Apply(Target{Core: core}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := core.Lanes()[1].Transmit(1, 1, 1); got != 0 {
		t.Fatalf("lane 1 transmits %v after DeadLane, want no light", got)
	}
	if err := core.Relock(); err == nil {
		t.Fatal("Relock succeeded on a core with a dead lane")
	}
}

func TestDriftBurstDegradesAndIsDeterministic(t *testing.T) {
	a := []fixed.Code{200, 200}
	b := []fixed.Code{200, 200}
	c1 := newTestCore(t)
	before := c1.Step(a, b)
	burst := DriftBurst{StepVolts: 0.05, Steps: 200, Seed: 11}
	if err := burst.Apply(Target{Core: c1}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	after1 := c1.Step(a, b)
	if math.Abs(after1-before) < 0.5 {
		t.Fatalf("drift burst barely moved the reading: %.2f -> %.2f", before, after1)
	}
	c2 := newTestCore(t)
	if err := burst.Apply(Target{Core: c2}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if after2 := c2.Step(a, b); after2 != after1 {
		t.Fatalf("same seed drifted differently: %.4f vs %.4f", after1, after2)
	}
}

func TestPhotonicFaultsNeedACore(t *testing.T) {
	for _, f := range []Fault{
		BiasRunaway{Lane: 0, DeltaVolts: 1},
		DriftBurst{StepVolts: 0.01, Steps: 1, Seed: 1},
		LaserSag{Factor: 0.5},
		DeadLane{Lane: 0},
	} {
		if err := f.Apply(Target{}); err == nil {
			t.Errorf("%s accepted a coreless target", f.Name())
		}
	}
}

func TestReadErrorBurstExhausts(t *testing.T) {
	d := mem.New(mem.DDR4Spec(), 1)
	if err := d.Store("w", []byte{1, 2, 3}); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if err := (ReadErrorBurst{Reads: 2}).Apply(Target{DRAM: d}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := d.Load("w"); ok {
			t.Fatalf("load %d succeeded during burst", i)
		}
	}
	if _, ok := d.Load("w"); !ok {
		t.Fatal("load failed after burst exhausted")
	}
	if d.FaultedReads() != 2 {
		t.Fatalf("FaultedReads = %d, want 2", d.FaultedReads())
	}
}

func TestMemFaultsNeedADRAM(t *testing.T) {
	for _, f := range []Fault{ReadErrorBurst{Reads: 1}} {
		err := f.Apply(Target{})
		if err == nil {
			t.Errorf("%s accepted a DRAM-less target", f.Name())
		} else if !strings.Contains(err.Error(), "DRAM") {
			t.Errorf("%s error %q does not name the missing surface", f.Name(), err)
		}
	}
}
