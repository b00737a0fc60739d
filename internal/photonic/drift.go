package photonic

import (
	"fmt"
	"math/rand/v2"
)

// ThermalDrift models the slow random walk of a modulator's operating point
// with temperature — the effect the packaged bias controller exists to
// cancel ("a packaged bias controller utilizes the tapped 1% modulator
// output light to lock the operation point during the entire computation
// process", Appendix B).
type ThermalDrift struct {
	// StepVolts is the per-Apply random-walk standard deviation in
	// equivalent bias volts.
	StepVolts float64
	rng       *rand.Rand
}

// NewThermalDrift builds a drift process.
func NewThermalDrift(stepVolts float64, seed uint64) *ThermalDrift {
	return &ThermalDrift{StepVolts: stepVolts, rng: rand.New(rand.NewPCG(seed, 0xd01f))}
}

// Apply advances the walk one step on a modulator's phase offset.
func (d *ThermalDrift) Apply(m *MZModulator) {
	m.PhaseOffset += d.rng.NormFloat64() * d.StepVolts
}

// Relock runs the bias controller and refreshes a lane's encode calibration
// at the current operating point — the maintenance action a deployment
// schedules (or triggers from the 1% tap monitor). A dead lane cannot be
// re-locked: with no carrier there is no tap light for the controller to
// servo on, so the fault is permanent until the laser line is repaired.
func (l *Lane) Relock() error {
	if l.dead {
		return fmt.Errorf("photonic: lane λ=%.2f nm is dead (carrier lost); relock impossible", float64(l.Lambda))
	}
	bc := NewBiasController()
	bc.Lock(l.Mod1, 1)
	bc.Lock(l.Mod2, 1)
	c1, err := CalibrateModulator(l.Mod1, 1, 256)
	if err != nil {
		return err
	}
	c2, err := CalibrateModulator(l.Mod2, 1, 256)
	if err != nil {
		return err
	}
	l.Cal1, l.Cal2 = c1, c2
	for code := 0; code < 256; code++ {
		u := float64(code) / 255
		l.volt1[code] = c1.VoltageFor(u)
		l.volt2[code] = c2.VoltageFor(u)
	}
	// Re-bake the transmission LUTs with the re-fitted voltages. The tables
	// follow a moved modulator anywhere (follow), but only here do the
	// voltages move back onto the calibrated transfer, so between a fault
	// and its relock every reading is the moved chain's.
	l.bakeLUTs()
	return nil
}

// Relock re-locks and recalibrates every lane of a core.
func (c *Core) Relock() error {
	for _, l := range c.lanes {
		if err := l.Relock(); err != nil {
			return err
		}
	}
	// The detector-side constants move with the new operating points, and
	// are measured at the carrier power actually feeding the lanes — so a
	// sagged laser is renormalized into the decode calibration here, which
	// is what heals a LaserSag fault.
	c.darkPerLane = c.lanes[0].dark(c.carrier)
	c.spanPerLane = c.lanes[0].full(c.carrier) - c.darkPerLane
	return nil
}

// Lanes exposes the core's lanes for maintenance operations (drift
// injection, per-lane relock).
func (c *Core) Lanes() []*Lane { return c.lanes }
