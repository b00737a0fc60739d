package photonic

import "fmt"

// Wavelength identifies an optical carrier in nanometres. The prototype uses
// two tunable telecom lasers at 1544.53 nm and 1552.52 nm (§6.1).
type Wavelength float64

// Prototype wavelengths.
const (
	Lambda1 Wavelength = 1544.53
	Lambda2 Wavelength = 1552.52
)

// CombLaser generates n evenly spaced carriers, the Kerr-comb source used by
// the scaled chip design (§8, Appendix E: "a comb laser to generate three
// different wavelengths ... split the light into two identical copies").
type CombLaser struct {
	Base    Wavelength // first carrier
	Spacing Wavelength // channel spacing
	Lines   int        // number of comb lines
}

// NewCombLaser returns an n-line comb starting at 1530 nm with 0.8 nm
// spacing (100 GHz grid).
func NewCombLaser(n int) *CombLaser {
	return &CombLaser{Base: 1530, Spacing: 0.8, Lines: n}
}

// Carrier returns the i-th comb wavelength.
func (c *CombLaser) Carrier(i int) Wavelength {
	if i < 0 || i >= c.Lines {
		panic(fmt.Sprintf("photonic: comb carrier %d out of range [0,%d)", i, c.Lines))
	}
	return c.Base + Wavelength(i)*c.Spacing
}
