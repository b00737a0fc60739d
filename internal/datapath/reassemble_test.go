package datapath

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

var reassembleSink fixed.Acc

// BenchmarkReassemble folds one dot's payload segment through the engine's
// cross-cycle adder and tree, a count table of one dot, at the segment lengths the benchmark's
// workloads carry: 9–33 samples (the MLP's dots), 9000 (the mixed wide
// layer's rows) and 37 632 (vision_frag's wide row). Codes are drawn from
// [0, 16), the first half of each segment under a positive sign, so no lane
// comes near a rail even on the longest segment.
func BenchmarkReassemble(b *testing.B) {
	core, err := photonic.NewPrototypeCore(7)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(core, 7)
	e.armAdder()
	rng := rand.New(rand.NewPCG(3, 5))
	for _, n := range []int{9, 16, 17, 33, 9000, 37632} {
		seg := make([]fixed.Code, n)
		for i := range seg {
			seg[i] = fixed.Code(rng.IntN(16))
		}
		table := []dotCount{{pos: n / 2, parts: n}}
		b.Run(fmt.Sprintf("len%d", n), func(b *testing.B) {
			var out [1]fixed.Acc
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.adder.reassemble(out[:], seg, table)
				reassembleSink = out[0]
			}
		})
	}
}
