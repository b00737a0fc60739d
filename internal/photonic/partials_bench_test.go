package photonic

import (
	"math/rand/v2"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// BenchmarkPartialsAt times the photonic pass of vision_frag's wide row: one
// operand group of 37 632 steps on the prototype core at the engine's full
// scale of two lanes — noiseless, with the prototype's noise, and as the
// datapath reads it out (readout: the readings, then the noise and the ADC
// codes in one pass). The operands are the served row's: weights at 255
// against a bright half's codes in [128, 240), so the readings sit inside the
// ADC's range as they do when served.
func BenchmarkPartialsAt(b *testing.B) {
	const steps = 37632
	rng := rand.New(rand.NewPCG(3, 9))
	x, w := make([]fixed.Code, 2*steps), make([]fixed.Code, 2*steps)
	for i := range x {
		x[i], w[i] = fixed.Code(128+rng.IntN(112)), 255
	}
	for _, bc := range []struct {
		name           string
		noise, readout bool
	}{{"noiseless", false, false}, {"noisy", true, false}, {"readout", true, true}} {
		b.Run(bc.name, func(b *testing.B) {
			core, err := NewPrototypeCore(7)
			if err != nil {
				b.Fatal(err)
			}
			core.FullScaleLanes = core.NumLanes()
			if !bc.noise {
				core.noise = nil
			}
			dst, codes := make([]float64, steps), make([]fixed.Code, steps)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.readout {
					core.ReadoutAt(codes, core.ReadingsInto(dst, x, w), 5, 0)
				} else {
					core.PartialsAt(dst, x, w, 5, 0)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/steps, "ns/step")
		})
	}
}
