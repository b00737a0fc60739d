package photonic

import (
	"fmt"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// Lane is one wavelength's compute path: two cascaded amplitude modulators
// performing a photonic multiplication (Fig 2a). The first modulator encodes
// operand a onto the carrier; the second multiplies by operand b.
type Lane struct {
	Lambda     Wavelength
	Mod1, Mod2 *MZModulator
	Cal1, Cal2 *ModulatorCalibration

	// volt1, volt2 are per-code drive-voltage lookup tables derived from
	// the calibrations: operands are 8-bit, so the encode map has exactly
	// 256 entries per modulator. Real deployments bake the same table
	// into the datapath to avoid inverting the transfer function online.
	volt1, volt2 [256]float64

	// g1, g2 are per-code transmission LUTs baked from the drive voltages
	// at the modulators' operating point (bakeLUTs):
	// g1[code] = Mod1.Transmission(volt1[code]), and likewise g2 for Mod2.
	// They collapse TransmitCodes' two raised-cosine evaluations (the only
	// transcendentals on the per-element analog path) into table loads.
	// The tap factors are kept as separate multiplicands (tap1, tap2)
	// rather than folded into g1/g2 because float multiplication is not
	// associative: a product is carrier·g1·tap1·g2·tap2, evaluated left to
	// right exactly in Modulate's order, which makes the LUT path
	// bit-identical to the live transfer chain.
	g1, g2 [256]float64
	// tap1, tap2 cache each modulator's through-path factor 1−TapFraction.
	tap1, tap2 float64
	// front[code] is the product's first three factors, carrier·g1[code]·
	// tap1, at the carrier frontCarrier: left to right they are the same
	// bits wherever the product is evaluated, so the core's kernels load
	// them and multiply by g2 and tap2 only. bakeLUTs refolds the table
	// with g1 and tap1, and Core.SetCarrierPower with the carrier, which
	// keeps frontCarrier the carrier of the core the lane belongs to.
	front        [256]float64
	frontCarrier float64
	// baked1, baked2 snapshot the modulator states the tables were baked
	// at; follow re-bakes them once a modulator has moved off its snapshot.
	baked1, baked2 mzState

	// dead marks a lost laser line: the lane emits no light at all, not
	// even the dark-level floor, and no amount of bias re-locking brings
	// it back (the carrier itself is gone).
	dead bool
}

// bakeLUTs (re)builds the per-code transmission tables from the drive
// voltages at the modulators' present operating points. NewLane and Relock
// call it after fitting the encode calibrations, and follow whenever a
// modulator has moved since.
func (l *Lane) bakeLUTs() {
	for code := 0; code < 256; code++ {
		l.g1[code] = l.Mod1.Transmission(l.volt1[code])
		l.g2[code] = l.Mod2.Transmission(l.volt2[code])
	}
	l.tap1 = 1 - l.Mod1.TapFraction
	l.tap2 = 1 - l.Mod2.TapFraction
	l.fold(l.frontCarrier)
	l.baked1 = l.Mod1.state()
	l.baked2 = l.Mod2.state()
}

// follow re-bakes the tables if either modulator has moved since they were
// baked — by a BiasRunaway, a DriftBurst or an operator's edit. The drive
// voltages stay the calibration's, so the tables then read what the live
// transfer chain reads at the moved point, and the fault stays visible until
// Relock re-fits the voltages.
func (l *Lane) follow() {
	if l.baked1 != l.Mod1.state() || l.baked2 != l.Mod2.state() {
		l.bakeLUTs()
	}
}

// fold rebuilds front at the given carrier from the baked g1 and tap1.
func (l *Lane) fold(carrier float64) {
	l.frontCarrier = carrier
	for code := range l.front {
		l.front[code] = carrier * l.g1[code] * l.tap1
	}
}

// Kill extinguishes the lane's laser line permanently — the hard failure a
// comb-line dropout or fiber break causes. A dead lane transmits nothing
// and Relock refuses it.
func (l *Lane) Kill() { l.dead = true }

// NewLane builds and calibrates a lane at the given wavelength. Each
// modulator gets its own intrinsic phase offset (devices differ), is locked
// at maximum extinction by the bias controller, and is swept to fit its
// encode polynomial (Appendix A/B).
func NewLane(w Wavelength, phase1, phase2 float64) (*Lane, error) {
	m1 := NewMZModulator(phase1)
	m2 := NewMZModulator(phase2)
	bc := NewBiasController()
	// Lock the null so zero drive produces (near) zero light, making a
	// zero operand multiply to zero (Appendix B).
	bc.Lock(m1, 1)
	bc.Lock(m2, 1)
	c1, err := CalibrateModulator(m1, 1, 256)
	if err != nil {
		return nil, fmt.Errorf("calibrating modulator 1: %w", err)
	}
	c2, err := CalibrateModulator(m2, 1, 256)
	if err != nil {
		return nil, fmt.Errorf("calibrating modulator 2: %w", err)
	}
	l := &Lane{Lambda: w, Mod1: m1, Mod2: m2, Cal1: c1, Cal2: c2, frontCarrier: 1}
	for code := 0; code < 256; code++ {
		u := float64(code) / 255
		l.volt1[code] = c1.VoltageFor(u)
		l.volt2[code] = c2.VoltageFor(u)
	}
	l.bakeLUTs()
	return l, nil
}

// TransmitCodes is the 8-bit fast path of Transmit: operands arrive as DAC
// codes and the calibrated transfer comes from the baked transmission LUTs
// — two table loads and four multiplies, no transcendentals, in exactly the
// live chain's multiplication order so the output is bit-identical to
// Modulate∘Modulate. It takes the carrier as given and so multiplies it in;
// the core's kernels start from the lane's front table instead, which holds
// the same first three factors at the core's carrier. A modulator a fault has
// moved is followed first (follow), so the product is the moved chain's.
func (l *Lane) TransmitCodes(carrier float64, a, b fixed.Code) float64 {
	if l.dead {
		return 0
	}
	l.follow()
	return carrier * l.g1[a] * l.tap1 * l.g2[b] * l.tap2
}

// Transmit pushes a carrier of the given intensity through the cascaded
// modulators driven to encode normalized operands ua, ub in [0, 1] and
// returns the double-modulated output intensity — proportional to ua×ub.
func (l *Lane) Transmit(carrier, ua, ub float64) float64 {
	if l.dead {
		return 0
	}
	i1 := l.Mod1.Modulate(carrier, l.Cal1.VoltageFor(ua))
	return l.Mod2.Modulate(i1, l.Cal2.VoltageFor(ub))
}

// dark returns the lane's output intensity with both operands at zero.
func (l *Lane) dark(carrier float64) float64 { return l.Transmit(carrier, 0, 0) }

// full returns the lane's output intensity with both operands at maximum.
func (l *Lane) full(carrier float64) float64 { return l.Transmit(carrier, 1, 1) }

// Core is a calibrated photonic vector dot-product core (Fig 2). It owns a
// set of wavelength lanes whose outputs a single photodetector accumulates,
// plus the detector-side decode calibration and analog noise model.
type Core struct {
	lanes []*Lane
	pd    *Photodetector
	noise *NoiseModel
	// FullScaleLanes sets the detector-side decode range: a reading of
	// 255 corresponds to FullScaleLanes lanes at full intensity. The
	// default of 1 matches the micro-benchmark convention of Fig 14
	// (single-lane full scale); the NIC datapath sets it to NumLanes so
	// multi-wavelength accumulations can never clip the ADC — the digital
	// adder then re-applies the known gain.
	FullScaleLanes int
	// darkPerLane and spanPerLane are the background-subtraction constants
	// derived at calibration time.
	darkPerLane float64
	spanPerLane float64
	// carrier is the per-lane laser intensity feeding the modulators
	// (1.0 nominal). The detector decode constants above are derived for
	// the carrier power seen at calibration time, so a power change
	// corrupts readings until the next Relock recalibrates.
	carrier float64
	// Steps counts analog time steps performed, for throughput accounting.
	Steps uint64
}

// CarrierPower returns the per-lane carrier intensity feeding the lanes.
func (c *Core) CarrierPower() float64 { return c.carrier }

// SetCarrierPower changes the laser output power driving every lane — the
// slow sag (or an operator-commanded trim) of a real source — and refolds
// each lane's front table at it, so the kernels see the new power at once.
// The detector decode constants are deliberately left stale: a sagging laser
// scales every reading until Relock recalibrates at the new operating point,
// which is exactly the failure signature a deployment's health monitor must
// catch.
func (c *Core) SetCarrierPower(p float64) {
	c.carrier = p
	for _, l := range c.lanes {
		l.fold(p)
	}
}

// SeekNoiseAt moves the noise model's cursor to draw ctr of key's stream, as
// if ctr readings had drawn from it since SeekNoise(key).
func (c *Core) SeekNoiseAt(key, ctr uint64) { c.noise.seekAt(key, ctr) }

// NewCore builds a core with n wavelength lanes and the given noise model
// (nil for an ideal channel). Lane phase offsets are deterministic but
// distinct, mimicking device-to-device variation.
func NewCore(n int, noise *NoiseModel) (*Core, error) {
	if n <= 0 {
		return nil, fmt.Errorf("photonic: core needs at least one lane, got %d", n)
	}
	comb := NewCombLaser(n)
	lanes := make([]*Lane, n)
	for i := range lanes {
		l, err := NewLane(comb.Carrier(i), 0.3+0.05*float64(i), -0.2+0.07*float64(i))
		if err != nil {
			return nil, err
		}
		lanes[i] = l
	}
	c := &Core{lanes: lanes, pd: NewPhotodetector(), noise: noise, carrier: 1}
	c.darkPerLane = lanes[0].dark(1)
	c.spanPerLane = lanes[0].full(1) - c.darkPerLane
	return c, nil
}

// NewCoreArray builds count replicated cores of n lanes each — the §7 chip
// design scales throughput by replicating the vector dot-product core. The
// noise callback supplies core i's noise model (return nil for an ideal
// channel); giving each core a distinctly-seeded model keeps the replicas'
// analog noise decorrelated, as physically separate photonic circuits would
// be. NewCoreArray(1, n, f) builds exactly NewCore(n, f(0)).
func NewCoreArray(count, n int, noise func(i int) *NoiseModel) ([]*Core, error) {
	if count <= 0 {
		return nil, fmt.Errorf("photonic: core array needs at least one core, got %d", count)
	}
	cores := make([]*Core, count)
	for i := range cores {
		var nm *NoiseModel
		if noise != nil {
			nm = noise(i)
		}
		c, err := NewCore(n, nm)
		if err != nil {
			return nil, fmt.Errorf("photonic: core %d: %w", i, err)
		}
		cores[i] = c
	}
	return cores, nil
}

// NewPrototypeCore builds the testbed configuration of §6.1: two wavelengths
// (1544.53 nm and 1552.52 nm), four modulators, one photodetector, and the
// calibrated prototype noise of Fig 18.
func NewPrototypeCore(seed uint64) (*Core, error) {
	l1, err := NewLane(Lambda1, 0.3, -0.2)
	if err != nil {
		return nil, err
	}
	l2, err := NewLane(Lambda2, 0.35, -0.13)
	if err != nil {
		return nil, err
	}
	c := &Core{
		lanes:   []*Lane{l1, l2},
		pd:      NewPhotodetector(),
		noise:   PrototypeNoise(seed),
		carrier: 1,
	}
	c.darkPerLane = l1.dark(1)
	c.spanPerLane = l1.full(1) - c.darkPerLane
	return c, nil
}

// NumLanes returns the number of wavelength lanes (the paper's
// num_accumulation_wavelengths).
func (c *Core) NumLanes() int { return len(c.lanes) }

// Step performs one analog time step: lane i multiplies a[i]×b[i], the WDM
// mux combines the double-modulated wavelengths, and the photodetector
// returns a single reading proportional to Σ a[i]·b[i] (Fig 2c). The reading
// is in code units where one lane at full scale reads 255; analog noise is
// added once per detector readout. Unused lanes idle dark.
func (c *Core) Step(a, b []fixed.Code) float64 {
	if len(a) != len(b) {
		panic("photonic: Step operand length mismatch")
	}
	if len(a) > len(c.lanes) {
		panic(fmt.Sprintf("photonic: %d operands exceed %d lanes", len(a), len(c.lanes)))
	}
	var detected float64
	for i := range a {
		// The WDM mux combines the lanes and the photodetector sums all
		// incident wavelengths; intensity addition is associative, so sum
		// directly rather than materializing the muxed field.
		detected += c.lanes[i].TransmitCodes(c.carrier, a[i], b[i])
	}
	detected = c.pd.DarkLevel + c.pd.Responsivity*detected
	// Background-subtract the active lanes' dark level and decode to code
	// units (Appendix A's f_PD with r_max=255 at the configured full
	// scale). Noise enters at the detector/ADC interface, i.e. at reading
	// scale.
	scale := c.FullScaleLanes
	if scale < 1 {
		scale = 1
	}
	r := (detected - float64(len(a))*c.darkPerLane) / (c.spanPerLane * float64(scale)) * fixed.MaxCode
	r += c.noise.Sample()
	c.Steps++
	return r
}

// Multiply performs a single photonic multiplication on lane 0 and returns
// the analog reading in code units (digital equivalent: a·b/255).
func (c *Core) Multiply(a, b fixed.Code) float64 {
	return c.Step([]fixed.Code{a}, []fixed.Code{b})
}

// DotSingleWavelength computes a full dot product on one wavelength by
// streaming the vectors through lane 0 over len(a) time steps and summing
// the readings, as the integrating circuit of Fig 2b does. The result is in
// code units (digital equivalent: Σ a_i·b_i/255), and may exceed 255: range
// management is the digital datapath's job.
//
//lint:allow reachability TestDotSingleWavelengthMatchesDigital checks §2.1's single-wavelength dot with it
func (c *Core) DotSingleWavelength(a, b []fixed.Code) float64 {
	if len(a) != len(b) {
		panic("photonic: dot product operand length mismatch")
	}
	var sum float64
	for i := range a {
		sum += c.Step(a[i:i+1], b[i:i+1])
	}
	return sum
}

// DotPartialsInto computes a dot product using all lanes: each analog step
// handles NumLanes element pairs, and the per-step detector readings (the
// partial sums the cross-cycle adder-subtractor later accumulates, §5.3) are
// written in order into dst — reallocated only when its capacity is short —
// and the filled slice (length ⌈len(a)/NumLanes⌉) is returned. A final short
// step handles the vector tail. It is the one-group case of
// DotPartialsBatchInto and, like it, performs zero heap allocations once dst
// has the capacity.
func (c *Core) DotPartialsInto(dst []float64, a, b []fixed.Code) []float64 {
	bounds := [2]int{0, len(a)}
	return c.DotPartialsBatchInto(dst, a, b, bounds[:])
}

// growPartials resizes s to n partials, reallocating only when capacity is
// short — DotPartialsBatchInto's cold path.
func growPartials(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Rebake re-bakes the tables of every lane whose modulators have moved
// since their last bake, at the moved operating points. DotPartialsBatchInto
// calls it once a call and the datapath once a layer, before the kernels
// read the tables: a fault injected between queries (the granularity the
// fault runner operates at) is in the tables by the next call's first step.
func (c *Core) Rebake() {
	for _, l := range c.lanes {
		l.follow()
	}
}

// dotChunk is how many steps' partials Dot holds at a time.
const dotChunk = 64

// Dot computes the full dot product by summing the per-step partials in
// order — the behaviour the combined photonic+digital pipeline produces —
// a fixed chunk of them at a time rather than materializing them all. Chunks
// are whole steps, so the analog steps and the noise draws are those of one
// DotPartialsInto call over the vectors.
func (c *Core) Dot(a, b []fixed.Code) float64 {
	if len(a) != len(b) {
		panic("photonic: dot product operand length mismatch")
	}
	var parts [dotChunk]float64
	chunk := dotChunk * c.NumLanes()
	var s float64
	for off := 0; off < len(a); off += chunk {
		end := min(off+chunk, len(a))
		for _, p := range c.DotPartialsInto(parts[:0], a[off:end], b[off:end]) {
			s += p
		}
	}
	return s
}
