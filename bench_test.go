package lightning

// One benchmark per paper table and figure (regenerating each experiment's
// numbers via internal/exp), micro-benchmarks on the core primitives, and
// the ablation benches DESIGN.md §5 calls out. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The printed experiment outputs land in EXPERIMENTS.md; these benches keep
// them reproducible and measure their cost.

import (
	"context"
	"io"
	"math/rand/v2"
	"net"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/countaction"
	"github.com/lightning-smartnic/lightning/internal/datapath"
	"github.com/lightning-smartnic/lightning/internal/dataset"
	"github.com/lightning-smartnic/lightning/internal/emu"
	"github.com/lightning-smartnic/lightning/internal/exp"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/mem"
	"github.com/lightning-smartnic/lightning/internal/model"
	"github.com/lightning-smartnic/lightning/internal/nn"
	"github.com/lightning-smartnic/lightning/internal/photonic"
	"github.com/lightning-smartnic/lightning/internal/sim"
)

// --- Experiment regeneration benches: one per table/figure ------------------

func benchExp(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4LatencyCDF(b *testing.B)       { benchExp(b, "fig4") }
func BenchmarkFig14MicroBenchmarks(b *testing.B) { benchExp(b, "fig14") }
func BenchmarkFig15LatencyBreakdown(b *testing.B) {
	benchExp(b, "fig15")
}
func BenchmarkFig17PreambleStreams(b *testing.B) { benchExp(b, "fig17") }
func BenchmarkFig18NoiseFit(b *testing.B)        { benchExp(b, "fig18") }
func BenchmarkFig23BiasSweep(b *testing.B)       { benchExp(b, "fig23") }
func BenchmarkTable1Synthesis(b *testing.B)      { benchExp(b, "table1") }
func BenchmarkTable2ChipProjection(b *testing.B) { benchExp(b, "table2") }
func BenchmarkTable3EnergyPerMAC(b *testing.B)   { benchExp(b, "table3") }
func BenchmarkTable4PriorDemos(b *testing.B)     { benchExp(b, "table4") }
func BenchmarkTable5CoreAlgebra(b *testing.B)    { benchExp(b, "table5") }
func BenchmarkTable6SimSettings(b *testing.B)    { benchExp(b, "table6") }
func BenchmarkCostEstimate(b *testing.B)         { benchExp(b, "cost") }

// Fig 16 and Fig 19 run scaled-down inside the bench loop (the full runs
// live behind `lightning-bench -exp fig16` / `-exp fig19`).
func BenchmarkFig16DigitInference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig16(40, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig19AccuracyEmulation(b *testing.B) {
	e := emu.New(1)
	net := emu.ProxyAlexNet(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate(net, 2, uint64(i))
	}
}

func BenchmarkFig21Fig22Simulation(b *testing.B) {
	cfg := sim.DefaultCompareConfig()
	cfg.Requests = 500
	cfg.Traces = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Compare(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core primitive micro-benches -------------------------------------------

func BenchmarkPhotonicMAC(b *testing.B) {
	core, err := photonic.NewPrototypeCore(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Multiply(fixed.Code(i), fixed.Code(i*7))
	}
}

// BenchmarkPhotonicDot1024, BenchmarkEndToEndInference and
// BenchmarkServeCoresScaling live in bench_trajectory_test.go (external test
// package), delegating to internal/bench so `go test -bench` and
// `lightning-bench -bench` measure the same code.

func BenchmarkCountActionRule(b *testing.B) {
	r := countaction.New("bench", 16, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(1)
	}
}

func BenchmarkCountActionBoundRule(b *testing.B) {
	rf := countaction.NewRegisterFile(4)
	rf.Write(0, 16)
	r := countaction.Bound("bench", rf, 0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(1)
	}
}

func BenchmarkPreambleDetection(b *testing.B) {
	cfg := datapath.PrototypePreamble()
	adc := converter.NewADC(1)
	burst := cfg.Prepend(make([]fixed.Code, 64))
	analog := make([]float64, len(burst))
	for i, c := range burst {
		analog[i] = float64(c)
	}
	frames := adc.ReadoutFrames(analog, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := datapath.NewDetector(cfg)
		if _, _, ok := d.Detect(frames); !ok {
			b.Fatal("detection failed")
		}
	}
}

// benchModel trains the small anomaly classifier the serve benches share.
func benchModel(b *testing.B) (*nn.QuantizedNetwork, []byte) {
	b.Helper()
	set := dataset.Anomaly(300, 1)
	net := nn.New(1, dataset.FlowFeatureWidth, 16, 8, 2)
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 5
	net.Train(set, cfg)
	q := nn.Quantize(net, set)
	raw := make([]byte, len(set.Examples[0].X))
	for i, c := range set.Examples[0].X {
		raw[i] = byte(c)
	}
	return q, raw
}

// BenchmarkServeCoresScalingHealth isolates the health subsystem's cost on
// the same sharded serve path: probes=0 carries only the always-on breaker
// machinery (a state load at dispatch plus a windowed outcome push — the
// delta against BenchmarkServeCoresScaling's historical numbers is the
// breaker overhead, and it should be negligible), while probes=64 adds a
// known-answer probe sweep every 64 served queries per shard.
func BenchmarkServeCoresScalingHealth(b *testing.B) {
	q, raw := benchModel(b)
	for _, cores := range []int{1, 4} {
		for _, probeEvery := range []int{0, 64} {
			b.Run(fmtInt("cores", cores)+"/"+fmtInt("probes", probeEvery), func(b *testing.B) {
				n, err := New(Config{Lanes: 2, Seed: 1, Cores: cores, ProbeEvery: probeEvery})
				if err != nil {
					b.Fatal(err)
				}
				if err := n.RegisterModel(1, "anomaly", q); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						msg := &Message{RequestID: 1, ModelID: 1, Payload: raw}
						if _, err := n.HandleMessage(msg); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.StopTimer()
				if m := n.Metrics(); m.Health.Quarantines != 0 {
					b.Fatalf("healthy hardware tripped a breaker mid-bench: %+v", m.Health)
				}
			})
		}
	}
}

// BenchmarkServeUDPWorkersCores drives the full UDP serve path — socket,
// wire codec, worker pool, sharded datapath — with one concurrent client
// per shard, sweeping the shard count.
func BenchmarkServeUDPWorkersCores(b *testing.B) {
	q, raw := benchModel(b)
	payload := make([]fixed.Code, len(raw))
	for i, v := range raw {
		payload[i] = fixed.Code(v)
	}
	for _, cores := range []int{1, 2, 4} {
		b.Run(fmtInt("cores", cores), func(b *testing.B) {
			n, err := New(Config{Lanes: 2, Seed: 1, Cores: cores})
			if err != nil {
				b.Fatal(err)
			}
			if err := n.RegisterModel(1, "anomaly", q); err != nil {
				b.Fatal(err)
			}
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer pc.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			go func() {
				defer close(done)
				n.ServeUDPWorkers(ctx, pc, 2*cores)
			}()
			addr := pc.LocalAddr().String()
			b.SetParallelism(1) // goroutines = GOMAXPROCS, one client each
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c, err := Dial(addr)
				if err != nil {
					b.Error(err)
					return
				}
				defer c.Close()
				for pb.Next() {
					if _, _, err := c.Infer(1, payload); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			cancel()
			<-done
		})
	}
}

// --- Extension-feature benches ----------------------------------------------

// BenchmarkConvLayer measures a 3×3 convolution through the full datapath.
func BenchmarkConvLayer(b *testing.B) {
	core, err := photonic.NewCore(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	e := datapath.NewEngine(core, 1)
	spec := datapath.ConvSpec{InH: 12, InW: 12, InC: 2, OutC: 4, K: 3, S: 1}
	kernels := make([][]fixed.Signed, spec.OutC)
	for oc := range kernels {
		kernels[oc] = make([]fixed.Signed, spec.WindowSize())
		for i := range kernels[oc] {
			kernels[oc][i] = fixed.Signed{Mag: fixed.Code(i * 13 % 256)}
		}
	}
	input := make([]fixed.Code, spec.InH*spec.InW*spec.InC)
	for i := range input {
		input[i] = fixed.Code(i % 256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteConv(kernels, input, spec, datapath.ActReLU, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaskScheduler measures the layer-task-level simulator against the
// request-level one.
func BenchmarkTaskScheduler(b *testing.B) {
	models := model.SimulationModels()
	a := sim.NewA100()
	rate := sim.RateForUtilization(a, models, 0.9)
	tr := sim.GenerateTrace(models, 1000, rate, 1)
	b.Run("task-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.RunTasks(sim.NewA100(), tr)
		}
	})
	b.Run("request-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Run(sim.NewA100(), tr)
		}
	})
}

// BenchmarkAblationNoiseGranularity contrasts the paper's conservative
// per-MAC noise model with the physically-grounded per-readout model on the
// deepest emulation proxy.
func BenchmarkAblationNoiseGranularity(b *testing.B) {
	net := emu.ProxyVGG19(5)
	for _, g := range []struct {
		name  string
		perRd int
	}{{"per-MAC", 1}, {"per-readout-24", 24}} {
		b.Run(g.name, func(b *testing.B) {
			e := emu.NewCalibrated(7)
			e.WavelengthsPerReadout = g.perRd
			var top5 float64
			for i := 0; i < b.N; i++ {
				res := e.Evaluate(net, 2, uint64(i))
				top5 += res[2].Top5
			}
			b.ReportMetric(top5/float64(b.N), "top5-agreement")
		})
	}
}

// --- Ablations (DESIGN.md §5) ------------------------------------------------

// BenchmarkAblationPreamble sweeps the preamble repetition count P and
// reports the detection failure rate under heavy noise: fewer repetitions
// save datapath cycles but miss bursts.
func BenchmarkAblationPreamble(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, reps := range []int{2, 4, 10} {
		b.Run(fmtInt("P", reps), func(b *testing.B) {
			// Fixed detection threshold of 2 matches; larger P buys
			// corruption slack at the cost of overhead samples.
			cfg := datapath.PreambleConfig{
				Pattern:     datapath.PrototypePattern(),
				Repetitions: reps,
				MinMatches:  2,
			}
			adc := converter.NewADC(7)
			// Harsh channel: heavy analog noise occasionally corrupts a
			// preamble sample past the H/L thresholds, so a repetition
			// fails to match; more repetitions buy more chances.
			noise := photonic.NewNoiseModel(0, 40, 7)
			misses := 0
			for i := 0; i < b.N; i++ {
				burst := cfg.Prepend(make([]fixed.Code, 32))
				analog := make([]float64, len(burst))
				for j, c := range burst {
					analog[j] = float64(c) + noise.Sample()
				}
				frames := adc.ReadoutFrames(analog, rng.IntN(converter.SamplesPerCycle))
				d := datapath.NewDetector(cfg)
				if _, _, ok := d.Detect(frames); !ok {
					misses++
				}
			}
			b.ReportMetric(float64(misses)/float64(b.N), "miss-rate")
			b.ReportMetric(float64(cfg.Samples()), "overhead-samples")
		})
	}
}

// BenchmarkAblationStopAndGo contrasts Lightning's in-datapath triggering
// against the control-plane round trips of prior work, per inference.
func BenchmarkAblationStopAndGo(b *testing.B) {
	m := model.LeNet300100()
	b.Run("count-action", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			total += sim.PrototypeLatency(m).EndToEnd().Seconds()
		}
		b.ReportMetric(total/float64(b.N)*1e6, "µs/inference")
	})
	b.Run("stop-and-go", func(b *testing.B) {
		cfg := sim.DefaultStopAndGo()
		rng := rand.New(rand.NewPCG(1, 1))
		var total float64
		for i := 0; i < b.N; i++ {
			total += cfg.InferenceLatency(m, rng).Seconds()
		}
		b.ReportMetric(total/float64(b.N)*1e6, "µs/inference")
	})
}

// BenchmarkAblationSignHandling compares Lightning's sign/magnitude split
// (full-rate photonics) against the prior dual-rail approach that runs every
// vector twice (Appendix C), measured as analog steps per dot product.
func BenchmarkAblationSignHandling(b *testing.B) {
	core, err := photonic.NewCore(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]fixed.Code, 256)
	w := make([]fixed.Code, 256)
	for i := range x {
		x[i], w[i] = fixed.Code(i), fixed.Code(255-i)
	}
	b.Run("sign-split", func(b *testing.B) {
		start := core.Steps
		for i := 0; i < b.N; i++ {
			core.Dot(x, w)
		}
		b.ReportMetric(float64(core.Steps-start)/float64(b.N), "analog-steps")
	})
	b.Run("dual-rail", func(b *testing.B) {
		start := core.Steps
		for i := 0; i < b.N; i++ {
			core.Dot(x, w) // positive rail
			core.Dot(x, w) // negative rail
		}
		b.ReportMetric(float64(core.Steps-start)/float64(b.N), "analog-steps")
	})
}

// BenchmarkAblationWavelengths sweeps the accumulation wavelength count N:
// more wavelengths mean fewer analog steps and fewer cross-cycle adder
// operations per dot product.
func BenchmarkAblationWavelengths(b *testing.B) {
	x := make([]fixed.Code, 512)
	w := make([]fixed.Code, 512)
	for i := range x {
		x[i], w[i] = fixed.Code(i), fixed.Code(i*3)
	}
	for _, lanes := range []int{1, 2, 4, 8} {
		b.Run(fmtInt("N", lanes), func(b *testing.B) {
			core, err := photonic.NewCore(lanes, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Dot(x, w)
			}
			b.ReportMetric(float64(core.Steps)/float64(b.N), "analog-steps")
		})
	}
}

// BenchmarkAblationBackpressure sweeps the DRAM-side FIFO depth and reports
// the streamer stall rate: shallow buffers leave the photonic core starved
// when DRAM bursts stall.
func BenchmarkAblationBackpressure(b *testing.B) {
	for _, depth := range []int{16, 64, 256} {
		b.Run(fmtInt("depth", depth), func(b *testing.B) {
			var stallFrac float64
			for i := 0; i < b.N; i++ {
				dram := mem.New(mem.DDR4Spec(), uint64(i))
				blob := make([]byte, 4096)
				if err := dram.Store("w", blob); err != nil {
					b.Fatal(err)
				}
				rd, err := dram.NewReader("w", converter.SamplesPerCycle)
				if err != nil {
					b.Fatal(err)
				}
				st := datapath.NewStreamer(1, depth, nil)
				for rd.Remaining() > 0 || st.Pending() > 0 {
					// DRAM bandwidth exceeds the DAC consumption rate
					// (170 Gbps vs 32 Gbps in the prototype): the
					// reader can run two bursts ahead when the FIFO
					// has room, so a deeper buffer rides out stalls.
					rd.Fill(st.DACs[0].In)
					rd.Fill(st.DACs[0].In)
					st.Tick()
				}
				stallFrac += float64(st.StallCycles) / float64(st.Cycles)
			}
			b.ReportMetric(stallFrac/float64(b.N), "stall-frac")
		})
	}
}

// BenchmarkAblationUtilization sweeps the baseline's load and reports the
// serve-time speedup at each point: queueing at high utilization is the
// amplifier behind Fig 21's magnitudes.
func BenchmarkAblationUtilization(b *testing.B) {
	models := model.SimulationModels()
	for _, util := range []float64{0.5, 0.9, 0.99} {
		name := "util=50"
		switch util {
		case 0.9:
			name = "util=90"
		case 0.99:
			name = "util=99"
		}
		b.Run(name, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				pts := sim.UtilizationSweep(sim.NewA100(), models, []float64{util}, 1500, uint64(i))
				speedup += pts[0].Speedup()
			}
			b.ReportMetric(speedup/float64(b.N), "speedup-x")
		})
	}
}

func fmtInt(prefix string, v int) string {
	s := prefix + "="
	if v >= 100 {
		s += string(rune('0' + v/100))
	}
	if v >= 10 {
		s += string(rune('0' + (v/10)%10))
	}
	return s + string(rune('0'+v%10))
}
