package photonic

import (
	"math"
	"testing"
)

func TestCombLaser(t *testing.T) {
	c := NewCombLaser(4)
	if d := c.Carrier(1) - c.Carrier(0); math.Abs(float64(d-c.Spacing)) > 1e-12 {
		t.Errorf("spacing = %v", d)
	}
}

func TestCombCarrierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Carrier out of range did not panic")
		}
	}()
	NewCombLaser(2).Carrier(2)
}
