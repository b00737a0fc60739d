package datapath

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// goldenWide pins the engine on layers whose rows run to tens of thousands of
// photonic steps, noise on: every accumulator, the layer's stats, the core's
// step counter, the ADC's sample counter and a hash of the burst exactly as
// the ADC read it. Its cases are a vision-width halves layer (one row of
// 37 632 steps beside one of 128, the benchmark's vision_frag shape) and a
// mixed-sign 5×9000 layer served twice on one engine, each at batch 1 and
// batch 8, and the same layers on a core whose first modulator was moved off
// the operating point its transmission LUTs were baked at, so every layer
// re-bakes them as its burst opens. Nothing in it depends on how many
// goroutines computed the bytes.
const goldenWide = "testdata/engine_wide_noise_on.golden"

// visionWidth is the benchmark's vision_frag input width (224×224×3).
const visionWidth = 150528

// halvesLayer is the synthetic halves classifier's one layer at width: row 0
// sums the first half of a query at full weight, row 1 the second. Each query
// has one bright half, every code in [128, 240), and one dim half with 256
// codes in [8, 40), the rest dark.
func halvesLayer(width, q int, seed uint64) (fixed.Matrix, [][]fixed.Code) {
	half := width / 2
	m := fixed.Matrix{make([]fixed.Signed, width), make([]fixed.Signed, width)}
	for i := 0; i < half; i++ {
		m[0][i], m[1][half+i] = fixed.Signed{Mag: fixed.MaxCode}, fixed.Signed{Mag: fixed.MaxCode}
	}
	rng := rand.New(rand.NewPCG(seed, uint64(width)))
	xs := make([][]fixed.Code, q)
	for qi := range xs {
		x := make([]fixed.Code, width)
		bright, dim := x[:half], x[half:]
		if rng.IntN(2) == 1 {
			bright, dim = dim, bright
		}
		for j := range bright {
			bright[j] = fixed.Code(128 + rng.IntN(112))
		}
		for _, j := range rng.Perm(len(dim))[:256] {
			dim[j] = fixed.Code(8 + rng.IntN(32))
		}
		xs[qi] = x
	}
	return m, xs
}

// mixedLayer draws a rows×cols layer with coin-flip signs, one weight in
// eight zero, and q queries of dim codes in [0, 24), one in six dark: long
// rows whose accumulators stay inside the 16-bit range.
func mixedLayer(rows, cols, q int, seed uint64) (fixed.Matrix, []fixed.Acc, [][]fixed.Code) {
	rng := rand.New(rand.NewPCG(seed, uint64(cols)))
	m := make(fixed.Matrix, rows)
	bias := make([]fixed.Acc, rows)
	for j := range m {
		m[j] = make([]fixed.Signed, cols)
		for i := range m[j] {
			if rng.IntN(8) != 0 {
				m[j][i] = fixed.Signed{Mag: fixed.Code(rng.IntN(256)), Neg: rng.IntN(2) == 1}
			}
		}
		bias[j] = fixed.Acc(rng.IntN(81) - 40)
	}
	xs := make([][]fixed.Code, q)
	for qi := range xs {
		xs[qi] = make([]fixed.Code, cols)
		for i := range xs[qi] {
			if rng.IntN(6) != 0 {
				xs[qi][i] = fixed.Code(rng.IntN(24))
			}
		}
	}
	return m, bias, xs
}

// wideRun serves the golden's cases through fresh prototype cores and
// engines and renders them as text.
func wideRun() (string, error) {
	var out strings.Builder
	for _, stale := range []bool{false, true} {
		for _, q := range []int{1, 8} {
			if stale && q == 8 {
				continue // batch 1 covers the moved core's halves layer
			}
			m, xs := halvesLayer(visionWidth, q, 51)
			if err := wideCase(&out, fmt.Sprintf("halves %d batch %d stale %v", visionWidth, q, stale), m, nil, xs, 1, stale); err != nil {
				return "", err
			}
		}
		for _, q := range []int{1, 8} {
			m, bias, xs := mixedLayer(5, 9000, q, 29)
			if err := wideCase(&out, fmt.Sprintf("mixed 5x9000 batch %d stale %v", q, stale), m, bias, xs, 2, stale); err != nil {
				return "", err
			}
		}
	}
	return out.String(), nil
}

// wideCase serves one layer times on a fresh engine and writes what the
// golden pins for each pass.
func wideCase(out *strings.Builder, name string, m fixed.Matrix, bias []fixed.Acc, xs [][]fixed.Code, times int, stale bool) error {
	core, err := photonic.NewPrototypeCore(7)
	if err != nil {
		return err
	}
	if stale {
		core.Lanes()[0].Mod1.Bias += 0.01
	}
	e := NewEngine(core, 7)
	quantized := uint64(0)
	for pass := 0; pass < times; pass++ {
		res := e.ExecuteFCBiasBatch(m, bias, xs, ActIdentity, 8)
		st := res.Stats
		quantized += digitized(e, st)
		fmt.Fprintf(out, "%s pass %d PhotonicSteps:%d ComputeCycles:%d DatapathCycles:%d SaturatedSamples:%d PreambleMisses:%d\n",
			name, pass, st.PhotonicSteps, st.ComputeCycles, st.DatapathCycles, st.SaturatedSamples, st.PreambleMisses)
		for qi, r := range res.PerQuery {
			fmt.Fprintf(out, "%s pass %d query %d raw %v\n", name, pass, qi, r.Raw)
		}
		// The closed burst is still in the scratch stream's storage: the
		// frames the layer read, past its per-layer overhead.
		frames := int(st.DatapathCycles) - PerLayerOverheadCycles
		h := fnv.New64a()
		for _, c := range e.scratch.stream[:frames*converter.SamplesPerCycle] {
			h.Write([]byte{byte(c)})
		}
		fmt.Fprintf(out, "%s pass %d core.steps %d adc.quantized %d burst.fnv64a %016x\n", name, pass, core.Steps, quantized, h.Sum64())
	}
	return nil
}

// TestEngineWideNoiseOnGolden replays the wide-layer golden at one, two and
// four Ps.
func TestEngineWideNoiseOnGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the goldens are recorded on amd64; %s may fuse the analog chain's multiply-adds", runtime.GOARCH)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got, err := wideRun()
		if err != nil {
			t.Fatal(err)
		}
		if *updateGolden {
			if err := os.WriteFile(goldenWide, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) { replayGolden(t, goldenWide, got) })
	}
}

// BenchmarkWideLayer serves the vision-width halves layer at batch 1 — the
// benchmark's vision_frag layer, 37 760 steps — at one, two and four Ps, the
// row of 37 632 steps fanned out to the helpers when there is more than one.
// A P count above the host's CPUs is skipped rather than measured on
// time-sliced CPUs.
func BenchmarkWideLayer(b *testing.B) {
	m, xs := halvesLayer(visionWidth, 1, 51)
	p, err := fixed.View(m.Pack(), len(m), visionWidth)
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs%d", procs), func(b *testing.B) {
			if procs > runtime.NumCPU() {
				b.Skipf("not measured: %d CPUs", runtime.NumCPU())
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			core, err := photonic.NewPrototypeCore(7)
			if err != nil {
				b.Fatal(err)
			}
			e := NewEngine(core, 7)
			e.ExecuteFCBiasBatch(p, nil, xs, ActIdentity, 8) // grows the scratch, starts the helpers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ExecuteFCBiasBatch(p, nil, xs, ActIdentity, 8)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/37760, "ns/step")
		})
	}
}

// TestEngineWideGoldenTwoShards serves the wide golden on two engines at
// once, as two core shards of one NIC would, and replays each.
func TestEngineWideGoldenTwoShards(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the goldens are recorded on amd64; %s may fuse the analog chain's multiply-adds", runtime.GOARCH)
	}
	type result struct {
		text string
		err  error
	}
	done := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			text, err := wideRun()
			done <- result{text, err}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		replayGolden(t, goldenWide, r.text)
	}
}

// TestEngineWideFaultFansOut serves two rows of well over fanOutSteps steps
// each, noise on, on a core whose first modulator a BiasRunaway moved between
// two layers, at one, two and four Ps: the layer re-bakes the moved lane's
// tables as its burst opens, and each row fans out to helpers that read
// them. The faulted layer must read the same bytes at every P count, the
// bytes of a twin faulted before its first layer, and not a healthy twin's.
func TestEngineWideFaultFansOut(t *testing.T) {
	m, bias, xs := mixedLayer(2, 40000, 1, 37)
	runaway := fault.BiasRunaway{Lane: 0, DeltaVolts: 0.4}
	// serve builds a prototype core, applies the runaway before layer
	// faultAt (never if it is out of range), and renders the second layer,
	// then a probe Step from where it left the cursor.
	serve := func(faultAt int) (string, string) {
		core, err := photonic.NewPrototypeCore(7)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(core, 7)
		var out strings.Builder
		for layer := 0; layer < 2; layer++ {
			if layer == faultAt {
				if err := runaway.Apply(fault.Target{Core: core}); err != nil {
					t.Fatal(err)
				}
			}
			res := e.ExecuteFCBiasBatch(m, bias, xs, ActIdentity, 8)
			if layer == 0 {
				continue
			}
			if n := len(e.scratch.pass.out); n < fanOutSteps {
				t.Fatalf("the last row took %d steps, under the %d a span fans out at", n, fanOutSteps)
			}
			frames := int(res.Stats.DatapathCycles) - PerLayerOverheadCycles
			h := fnv.New64a()
			for _, c := range e.scratch.stream[:frames*converter.SamplesPerCycle] {
				h.Write([]byte{byte(c)})
			}
			fmt.Fprintf(&out, "stats %+v\nraw %v\ncore.steps %d burst.fnv64a %016x\n",
				res.Stats, res.PerQuery[0].Raw, core.Steps, h.Sum64())
		}
		return out.String(), fmt.Sprint(core.Step([]fixed.Code{200}, []fixed.Code{100}))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first string
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got, next := serve(1)
		want, wantNext := serve(0)
		if got != want || next != wantNext {
			t.Fatalf("procs %d: the layer after a runaway read\n%snext %s\nthe twin faulted from the start\n%snext %s", procs, got, next, want, wantNext)
		}
		if clean, _ := serve(2); got == clean {
			t.Fatal("the runaway does not change what the layer reads: the tables masked it")
		}
		if got += "next " + next; first == "" {
			first = got
		} else if got != first {
			t.Fatalf("procs %d read\n%s\nprocs 1 read\n%s", procs, got, first)
		}
	}
}
