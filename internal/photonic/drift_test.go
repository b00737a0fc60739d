package photonic

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// driftError is the mean absolute multiplication error under an ongoing
// drift process, optionally re-locking every relockEvery operations.
func driftError(t *testing.T, relockEvery int) float64 {
	t.Helper()
	c, err := NewCore(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	drift := NewThermalDrift(0.02, 7)
	rng := rand.New(rand.NewPCG(8, 8))
	var sum float64
	n := 400
	for i := 0; i < n; i++ {
		// Drift acts continuously on both modulators.
		drift.Apply(c.Lanes()[0].Mod1)
		drift.Apply(c.Lanes()[0].Mod2)
		if relockEvery > 0 && i%relockEvery == relockEvery-1 {
			if err := c.Relock(); err != nil {
				t.Fatal(err)
			}
		}
		a := fixed.Code(rng.IntN(256))
		b := fixed.Code(rng.IntN(256))
		sum += math.Abs(c.Multiply(a, b) - float64(a)*float64(b)/255)
	}
	return sum / float64(n)
}

func TestThermalDriftControlledByRelocking(t *testing.T) {
	unmaintained := driftError(t, 0)
	maintained := driftError(t, 50)
	if unmaintained < 2 {
		t.Errorf("unmaintained drift error only %.2f codes; drift model too weak", unmaintained)
	}
	if maintained > unmaintained/2 {
		t.Errorf("re-locking barely helped: %.2f vs %.2f codes", maintained, unmaintained)
	}
	// Between re-locks the walk still accumulates ≈σ√50 ≈ 0.14 V of phase
	// error, worth a few codes at mid-scale; the bound reflects that.
	if maintained > 6 {
		t.Errorf("maintained error %.2f codes too high", maintained)
	}
}

func TestRelockRestoresCleanCore(t *testing.T) {
	c, err := NewCore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline := c.Multiply(200, 200)
	// Large instantaneous drift.
	for _, l := range c.Lanes() {
		l.Mod1.PhaseOffset += 1.2
		l.Mod2.PhaseOffset -= 0.9
	}
	drifted := c.Multiply(200, 200)
	if math.Abs(drifted-baseline) < 5 {
		t.Fatalf("drift had no effect: %v vs %v", drifted, baseline)
	}
	if err := c.Relock(); err != nil {
		t.Fatal(err)
	}
	recovered := c.Multiply(200, 200)
	if math.Abs(recovered-baseline) > 1 {
		t.Errorf("relock did not restore accuracy: %v vs %v", recovered, baseline)
	}
}

// knownAnswerError measures the mean absolute known-answer error (codes)
// across a fixed probe set, exercising every lane at once — the same signal
// the NIC's health probes use.
func knownAnswerError(c *Core) float64 {
	pairs := [][2]fixed.Code{{16, 240}, {64, 64}, {128, 255}, {200, 200}, {255, 255}}
	lanes := c.NumLanes()
	a := make([]fixed.Code, lanes)
	b := make([]fixed.Code, lanes)
	var sum float64
	for _, p := range pairs {
		for i := range a {
			a[i], b[i] = p[0], p[1]
		}
		want := float64(lanes) * float64(p[0]) * float64(p[1]) / 255
		sum += math.Abs(c.Step(a, b) - want)
	}
	return sum / float64(len(pairs))
}

// TestRelockClosedLoopUnderContinuousDrift closes the maintenance loop the
// NIC's health subsystem runs: thermal drift accumulates on every modulator
// until the known-answer error grows past a quarantine bound, Relock
// restores it below a readmission bound, and drift resumes — over several
// cycles, so a single lucky recalibration cannot pass the test.
func TestRelockClosedLoopUnderContinuousDrift(t *testing.T) {
	c, err := NewCore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	drift := NewThermalDrift(0.05, 21)
	const degradedBound = 8.0  // codes: clearly corrupt
	const recoveredBound = 1.0 // codes: back within calibration accuracy
	if e := knownAnswerError(c); e > recoveredBound {
		t.Fatalf("fresh core already degraded: %.2f codes", e)
	}
	for cycle := 0; cycle < 3; cycle++ {
		steps := 0
		for knownAnswerError(c) < degradedBound {
			for _, l := range c.Lanes() {
				drift.Apply(l.Mod1)
				drift.Apply(l.Mod2)
			}
			if steps++; steps > 50000 {
				t.Fatalf("cycle %d: drift never degraded the core past %.1f codes", cycle, degradedBound)
			}
		}
		if err := c.Relock(); err != nil {
			t.Fatalf("cycle %d: relock: %v", cycle, err)
		}
		if e := knownAnswerError(c); e > recoveredBound {
			t.Errorf("cycle %d: relock left %.2f codes of error, want < %.1f", cycle, e, recoveredBound)
		}
	}
}

// TestRelockRefusesDeadLane: a lost laser line is a permanent fault — the
// bias controller has no tap light to servo on, so Relock must fail rather
// than report a healthy core.
func TestRelockRefusesDeadLane(t *testing.T) {
	c, err := NewCore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	healthy := knownAnswerError(c)
	c.Lanes()[1].Kill()
	if !c.Lanes()[1].dead {
		t.Fatal("Kill did not mark the lane dead")
	}
	degraded := knownAnswerError(c)
	if degraded < healthy+10 {
		t.Errorf("dead lane barely changed error: %.2f → %.2f codes", healthy, degraded)
	}
	if err := c.Relock(); err == nil {
		t.Error("relock succeeded on a core with a dead lane")
	}
}

// TestLaserSagHealedByRelock: a carrier power sag scales every reading
// until Relock renormalizes the detector decode constants at the sagged
// power — the transient fault the health subsystem can self-heal.
func TestLaserSagHealedByRelock(t *testing.T) {
	c, err := NewCore(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCarrierPower(0.5) // ≈3 dB sag
	if p := c.CarrierPower(); p != 0.5 {
		t.Fatalf("CarrierPower = %v", p)
	}
	sagged := knownAnswerError(c)
	if sagged < 20 {
		t.Errorf("3 dB sag barely corrupted readings: %.2f codes", sagged)
	}
	if err := c.Relock(); err != nil {
		t.Fatal(err)
	}
	if e := knownAnswerError(c); e > 1.0 {
		t.Errorf("relock did not renormalize the sagged carrier: %.2f codes", e)
	}
}

func TestDriftIsRandomWalk(t *testing.T) {
	m := NewMZModulator(0)
	d := NewThermalDrift(0.1, 3)
	start := m.PhaseOffset
	for i := 0; i < 1000; i++ {
		d.Apply(m)
	}
	// After 1000 steps of σ=0.1, expected |displacement| ≈ 0.1·√1000 ≈ 3.2.
	disp := math.Abs(m.PhaseOffset - start)
	if disp < 0.3 || disp > 15 {
		t.Errorf("walk displacement = %.2f, implausible for σ√n ≈ 3.2", disp)
	}
}
