package datapath

import (
	"fmt"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// BenchmarkSmallLayers serves the anomaly MLP's three layer shapes — 32×32,
// 16×32 and 2×16, coin-flip signs, half the activations dark — through
// ExecuteFCBiasBatch on the prototype core, noise on, at batch 1, 2 and 8,
// and reports what the three layers cost a query. Each layer reads its own
// fixed activations, so no layer waits on the one before.
func BenchmarkSmallLayers(b *testing.B) {
	shapes := [][2]int{{32, 32}, {16, 32}, {2, 16}}
	for _, q := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			views := make([]fixed.Weights, len(shapes)) // boxed once, as the loader holds them
			inputs := make([][][]fixed.Code, len(shapes))
			for l, sh := range shapes {
				m, xs := coinFlipLayer(sh[0], sh[1], q, uint64(11+l))
				p, err := fixed.View(m.Pack(), sh[0], sh[1])
				if err != nil {
					b.Fatal(err)
				}
				views[l], inputs[l] = p, xs
			}
			core, err := photonic.NewPrototypeCore(7)
			if err != nil {
				b.Fatal(err)
			}
			e := NewEngine(core, 7)
			for l := range views { // grows the scratch
				e.ExecuteFCBiasBatch(views[l], nil, inputs[l], ActReLU, 8)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l := range views {
					e.ExecuteFCBiasBatch(views[l], nil, inputs[l], ActReLU, 8)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(q), "ns/query")
		})
	}
}

// BenchmarkRowWidth serves the same 6 400 coin-flip elements a query — a
// layer of rows × cols, half the activations dark — at five row widths, from
// two rows of 3 200 to 400 of 16, through ExecuteFCBiasBatch on the
// prototype core, noise on, at batch 1 and 8. It reports what a photonic step
// costs: a layer's per-dot host work over the steps its dots issue, which a
// narrow layer spreads over fewer steps a dot than a wide one.
func BenchmarkRowWidth(b *testing.B) {
	for _, q := range []int{1, 8} {
		for _, sh := range [][2]int{{2, 3200}, {8, 800}, {50, 128}, {200, 32}, {400, 16}} {
			b.Run(fmt.Sprintf("%dx%d/q%d", sh[0], sh[1], q), func(b *testing.B) {
				m, xs := coinFlipLayer(sh[0], sh[1], q, 17)
				p, err := fixed.View(m.Pack(), sh[0], sh[1])
				if err != nil {
					b.Fatal(err)
				}
				var w fixed.Weights = p // boxed once, as the loader holds it
				core, err := photonic.NewPrototypeCore(7)
				if err != nil {
					b.Fatal(err)
				}
				e := NewEngine(core, 7)
				steps := e.ExecuteFCBiasBatch(w, nil, xs, ActReLU, 8).Stats.PhotonicSteps // grows the scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.ExecuteFCBiasBatch(w, nil, xs, ActReLU, 8)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(steps), "ns/step")
			})
		}
	}
}
