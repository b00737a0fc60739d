package photonic

import (
	"math"
	"testing"
)

func TestTransmissionRange(t *testing.T) {
	m := NewMZModulator(0.4)
	for v := -10.0; v <= 10; v += 0.1 {
		tr := m.Transmission(v)
		if tr < 0 || tr > 1 {
			t.Fatalf("Transmission(%v) = %v out of [0,1]", v, tr)
		}
	}
}

func TestTransmissionPeriodicity(t *testing.T) {
	m := NewMZModulator(0.1)
	// The MZM response has period 2·Vpi.
	for v := 0.0; v < 5; v += 0.7 {
		if d := math.Abs(m.Transmission(v) - m.Transmission(v+2*m.Vpi)); d > 1e-12 {
			t.Fatalf("period violated at v=%v: delta %v", v, d)
		}
	}
}

func TestBiasControllerLocksNull(t *testing.T) {
	for _, phase := range []float64{0, 0.5, -1.3, 2.2} {
		m := NewMZModulator(phase)
		bc := NewBiasController()
		bc.Lock(m, 1)
		// At the locked point, zero drive must be (near) full extinction.
		if tr := m.Transmission(0); tr > m.ExtinctionFloor+0.01 {
			t.Errorf("phase %v: locked transmission at 0 V = %v, want ≈%v", phase, tr, m.ExtinctionFloor)
		}
		// And Vpi away it must be (near) full transmission.
		if tr := m.Transmission(m.Vpi); tr < 0.99 {
			t.Errorf("phase %v: transmission at Vpi = %v, want ≈1", phase, tr)
		}
	}
}

func TestBiasSweepShape(t *testing.T) {
	// Fig 23: the sweep over [-9, 9] V of a 5 V-Vpi device must show both a
	// clear minimum (max extinction) and a clear maximum.
	m := NewMZModulator(0.7)
	bc := NewBiasController()
	pts := bc.Sweep(m, 1)
	if len(pts) < 100 {
		t.Fatalf("sweep produced %d points", len(pts))
	}
	lo, hi := pts[0].Reading, pts[0].Reading
	for _, p := range pts {
		if p.Reading < lo {
			lo = p.Reading
		}
		if p.Reading > hi {
			hi = p.Reading
		}
	}
	if hi/math.Max(lo, 1e-9) < 100 {
		t.Errorf("extinction ratio over sweep = %v, want >100", hi/lo)
	}
	// Bias must be restored after the sweep.
	if m.Bias != 0 {
		t.Errorf("Sweep modified Bias to %v", m.Bias)
	}
}

func TestTapConservesEnergy(t *testing.T) {
	m := NewMZModulator(0)
	in := 0.8
	v := 2.5
	mainOut := m.Modulate(in, v)
	tap := m.TapOutput(in, v)
	total := in * m.Transmission(v)
	if d := math.Abs(mainOut + tap - total); d > 1e-12 {
		t.Errorf("main %v + tap %v != transmitted %v", mainOut, tap, total)
	}
	if tap/total < 0.009 || tap/total > 0.011 {
		t.Errorf("tap fraction = %v, want 1%%", tap/total)
	}
}

func TestEncodingRangeMonotone(t *testing.T) {
	m := NewMZModulator(1.1)
	NewBiasController().Lock(m, 1)
	lo, hi := m.EncodingRange()
	prev := m.Transmission(lo)
	for v := lo; v <= hi; v += (hi - lo) / 200 {
		cur := m.Transmission(v)
		if cur < prev-1e-9 {
			t.Fatalf("transmission not monotone at %v: %v < %v", v, cur, prev)
		}
		prev = cur
	}
}
