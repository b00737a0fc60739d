package photonic

import "testing"

func TestTable5Algebra(t *testing.T) {
	cases := []struct {
		spec                                 ScaledCoreSpec
		macs, wmods, imods, pds, wavelengths int
	}{
		// Table 5 rows: scalar unit, N-wavelength core, +W parallel, +B batch.
		{ScaledCoreSpec{N: 1, W: 1, B: 1}, 1, 1, 1, 1, 1},
		{ScaledCoreSpec{N: 4, W: 1, B: 1}, 4, 4, 4, 1, 4},
		{ScaledCoreSpec{N: 4, W: 3, B: 1}, 12, 12, 4, 3, 4},
		{ScaledCoreSpec{N: 4, W: 3, B: 2}, 24, 12, 8, 6, 4},
		// Fig 25 worked example: 12 MACs per step.
		{Fig25Spec(), 12, 6, 6, 4, 3},
		// §8 chip: 576 MACs with 600 modulators and 24 photodetectors
		// (Table 2's component counts).
		{ChipSpec(), 576, 576, 24, 24, 24},
	}
	for _, c := range cases {
		if got := c.spec.MACsPerStep(); got != c.macs {
			t.Errorf("%+v MACs = %d, want %d", c.spec, got, c.macs)
		}
		if got := c.spec.WeightModulators(); got != c.wmods {
			t.Errorf("%+v weight mods = %d, want %d", c.spec, got, c.wmods)
		}
		if got := c.spec.InputModulators(); got != c.imods {
			t.Errorf("%+v input mods = %d, want %d", c.spec, got, c.imods)
		}
		if got := c.spec.Photodetectors(); got != c.pds {
			t.Errorf("%+v photodetectors = %d, want %d", c.spec, got, c.pds)
		}
		if got := c.spec.DistinctWavelengths(); got != c.wavelengths {
			t.Errorf("%+v wavelengths = %d, want %d", c.spec, got, c.wavelengths)
		}
	}
}

func TestChipSpecTotalModulators(t *testing.T) {
	// Table 2 counts 600 modulators total for the 576-MAC chip.
	if got := ChipSpec().Modulators(); got != 600 {
		t.Errorf("chip modulators = %d, want 600", got)
	}
}

func TestScaledCoreSpecValidate(t *testing.T) {
	if err := (ScaledCoreSpec{N: 0, W: 1, B: 1}).Validate(); err == nil {
		t.Error("invalid spec accepted")
	}
	if err := Fig25Spec().Validate(); err != nil {
		t.Errorf("Fig25 spec rejected: %v", err)
	}
}
