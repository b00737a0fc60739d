// Package chip models Lightning's ASIC synthesis study (§8, Appendix E):
// the 65 nm datapath synthesis results of Table 1, the 7 nm full-chip
// area/power projection of Table 2, the end-to-end energy-per-MAC comparison
// of Table 3, and the §10 cost estimate. The 65 nm anchors are the paper's
// published Cadence results; everything else is the paper's own scaling
// arithmetic, implemented rather than copied so parameter studies (different
// wavelength counts, processes, batch sizes) fall out for free.
package chip

import (
	"fmt"

	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// Component is one chip building block with per-unit area and power.
type Component struct {
	Name string
	// UnitArea is mm² per instance; UnitPower is W per instance.
	UnitArea, UnitPower float64
	Count               int
}

// Area returns the component's total area in mm².
func (c Component) Area() float64 { return c.UnitArea * float64(c.Count) }

// Power returns the component's total power in W.
func (c Component) Power() float64 { return c.UnitPower * float64(c.Count) }

// Synthesis65nm holds the Cadence Genus/Innovus results for the digital
// datapath modules of ONE photonic MAC in the commercial 65 nm library
// (Table 1).
type Synthesis65nm struct {
	PacketIO, MemoryController, CountAction Component
}

// Table1 returns the paper's 65 nm synthesis anchors.
func Table1() Synthesis65nm {
	return Synthesis65nm{
		PacketIO:         Component{Name: "Packet I/O (steps 1,8)", UnitArea: 0.08, UnitPower: 0.034, Count: 1},
		MemoryController: Component{Name: "Memory controller (step 3)", UnitArea: 0.12, UnitPower: 0.067, Count: 1},
		CountAction:      Component{Name: "Count-action modules (steps 2,4,6,7)", UnitArea: 1.26, UnitPower: 0.156, Count: 1},
	}
}

// TotalArea returns the one-MAC datapath area (1.46 mm² in the paper).
func (s Synthesis65nm) TotalArea() float64 {
	return s.PacketIO.Area() + s.MemoryController.Area() + s.CountAction.Area()
}

// TotalPower returns the one-MAC datapath power (0.257 W in the paper).
func (s Synthesis65nm) TotalPower() float64 {
	return s.PacketIO.Power() + s.MemoryController.Power() + s.CountAction.Power()
}

// ProcessScaling captures the 65 nm → 7 nm projection factors the paper
// adopts from TPUv4i's process comparison: 9.3× area and 3.6× power
// reduction.
type ProcessScaling struct {
	AreaShrink, PowerShrink float64
}

// Scaling65To7 returns the paper's factors.
func Scaling65To7() ProcessScaling { return ProcessScaling{AreaShrink: 9.3, PowerShrink: 3.6} }

// ChipConfig parameterizes a full Lightning chip.
type ChipConfig struct {
	// Spec is the photonic core architecture (N wavelengths, W parallel
	// modulations, batch B). The §8 chip is photonic.ChipSpec().
	Spec photonic.ScaledCoreSpec
	// ClockHz is the analog compute frequency (97 GHz for the §8 chip).
	ClockHz float64
	// Process scales the 65 nm digital anchors.
	Process ProcessScaling
	// EnergyPerMACJoules is the photonic compute energy (40 aJ/MAC).
	EnergyPerMACJoules float64
}

// DefaultChip returns the §8 design: 576 photonic MACs at 97 GHz.
func DefaultChip() ChipConfig {
	return ChipConfig{
		Spec:               photonic.ChipSpec(),
		ClockHz:            97e9,
		Process:            Scaling65To7(),
		EnergyPerMACJoules: 40e-18,
	}
}

// Per-unit constants for the projected components (Table 2's sources).
const (
	hbm2Area  = 81.1  // mm² [Cho'18]
	hbm2Power = 7.41  // W [O'Connor'17]
	dacArea   = 0.58  // mm² [Nguyen'21]
	dacPower  = 0.077 // W
	adcArea   = 0.58
	adcPower  = 0.075
	modArea   = 2.5    // mm² [Wang'18]
	pdArea    = 3.2e-5 // mm² [Maes'22]
	laserArea = 0.01   // mm² [Xue'17]
)

// Budget is an area/power rollup.
type Budget struct {
	Digital, Photonic []Component
}

// DigitalArea sums digital component areas (mm²).
func (b Budget) DigitalArea() float64 { return sumArea(b.Digital) }

// DigitalPower sums digital component power (W).
func (b Budget) DigitalPower() float64 { return sumPower(b.Digital) }

// PhotonicArea sums photonic component areas (mm²).
func (b Budget) PhotonicArea() float64 { return sumArea(b.Photonic) }

// PhotonicPower sums photonic component power (W).
func (b Budget) PhotonicPower() float64 { return sumPower(b.Photonic) }

// TotalArea is the full chip area (mm²).
func (b Budget) TotalArea() float64 { return b.DigitalArea() + b.PhotonicArea() }

// TotalPower is the full chip power (W).
func (b Budget) TotalPower() float64 { return b.DigitalPower() + b.PhotonicPower() }

func sumArea(cs []Component) float64 {
	var s float64
	for _, c := range cs {
		s += c.Area()
	}
	return s
}

func sumPower(cs []Component) float64 {
	var s float64
	for _, c := range cs {
		s += c.Power()
	}
	return s
}

// Project builds the Table 2 budget for a chip configuration: the 65 nm
// one-MAC anchors scale by process and by instance counts (packet I/O per
// wavelength; memory controller and count-action per MAC), and the
// converter/memory/photonic components come from their published unit
// numbers.
func Project(cfg ChipConfig) (Budget, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return Budget{}, err
	}
	anchors := Table1()
	sh := cfg.Process
	macs := cfg.Spec.MACsPerStep()
	wl := cfg.Spec.DistinctWavelengths()
	mods := cfg.Spec.Modulators()
	pds := cfg.Spec.Photodetectors()

	scale := func(c Component, count int) Component {
		return Component{
			Name:      c.Name,
			UnitArea:  c.UnitArea / sh.AreaShrink,
			UnitPower: c.UnitPower / sh.PowerShrink,
			Count:     count,
		}
	}
	b := Budget{
		Digital: []Component{
			scale(anchors.PacketIO, wl),
			scale(anchors.MemoryController, macs),
			scale(anchors.CountAction, macs),
			{Name: "HBM2", UnitArea: hbm2Area, UnitPower: hbm2Power, Count: 1},
			{Name: "DAC", UnitArea: dacArea, UnitPower: dacPower, Count: mods},
			{Name: "ADC", UnitArea: adcArea, UnitPower: adcPower, Count: pds},
		},
		Photonic: []Component{},
	}
	// The photonic power budget is the 40 aJ/MAC compute energy at the
	// compute clock (0.00223 W for the §8 chip), which Table 2 spreads
	// across the modulators as their per-unit power.
	computeW := cfg.EnergyPerMACJoules * cfg.ClockHz * float64(macs)
	b.Photonic = []Component{
		{Name: "Modulator", UnitArea: modArea, UnitPower: computeW / float64(mods), Count: mods},
		{Name: "Photodetector", UnitArea: pdArea, UnitPower: 0, Count: pds},
		{Name: "Comb laser", UnitArea: laserArea, UnitPower: 0, Count: 1},
	}
	return b, nil
}

// BrainwaveFPGAArea is the Intel Stratix 10 die area Brainwave uses (mm²).
const BrainwaveFPGAArea = 5180.0

// CompareArea returns how many times smaller the chip is than Brainwave's
// FPGA (2.55× in the paper).
func CompareArea(b Budget) float64 { return BrainwaveFPGAArea / b.TotalArea() }

// String renders the budget as a Table 2 style report.
func (b Budget) String() string {
	out := "type      component            count  area(mm²)   power(W)\n"
	for _, c := range b.Digital {
		out += fmt.Sprintf("digital   %-20s %5d  %9.3f  %9.4f\n", c.Name, c.Count, c.Area(), c.Power())
	}
	for _, c := range b.Photonic {
		out += fmt.Sprintf("photonic  %-20s %5d  %9.3f  %9.6f\n", c.Name, c.Count, c.Area(), c.Power())
	}
	out += fmt.Sprintf("total     %-20s %5s  %9.3f  %9.3f\n", "", "", b.TotalArea(), b.TotalPower())
	return out
}
