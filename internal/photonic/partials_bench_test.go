package photonic

import (
	"math/rand/v2"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// BenchmarkPartialsAt times the photonic pass of vision_frag's wide row: one
// operand group of 37 632 steps on a two-lane core — noiseless, with the
// prototype's noise, and as the datapath reads it out (readout: the readings,
// then the noise and the ADC codes in one pass). It calls only exported API.
func BenchmarkPartialsAt(b *testing.B) {
	const steps = 37632
	rng := rand.New(rand.NewPCG(3, 9))
	x, w := make([]fixed.Code, 2*steps), make([]fixed.Code, 2*steps)
	for i := range x {
		x[i], w[i] = fixed.Code(rng.IntN(256)), fixed.Code(rng.IntN(256))
	}
	for _, bc := range []struct {
		name    string
		noise   *NoiseModel
		readout bool
	}{{"noiseless", nil, false}, {"noisy", PrototypeNoise(7), false}, {"readout", PrototypeNoise(7), true}} {
		b.Run(bc.name, func(b *testing.B) {
			core, err := NewCore(2, bc.noise)
			if err != nil {
				b.Fatal(err)
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
