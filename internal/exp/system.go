package exp

import (
	"fmt"
	"io"

	"github.com/lightning-smartnic/lightning/internal/emu"
	"github.com/lightning-smartnic/lightning/internal/model"
	"github.com/lightning-smartnic/lightning/internal/sim"
	"github.com/lightning-smartnic/lightning/internal/stats"
)

func init() {
	register("fig4", func(w io.Writer) error { return Fig4(w, 100, 1) })
	register("fig15", Fig15)
	register("fig19", func(w io.Writer) error { return Fig19(w, 20, 1) })
	register("fig21", func(w io.Writer) error { return fig2122(w, sim.DefaultCompareConfig(), true) })
	register("fig22", func(w io.Writer) error { return fig2122(w, sim.DefaultCompareConfig(), false) })
	register("table6", Table6)
	register("sweep", func(w io.Writer) error { return Sweep(w, 3000, 1) })
	register("tails", func(w io.Writer) error { return Tails(w, 5000, 1) })
}

// Tails prints serve-time percentiles per accelerator at the §9 load point:
// tail latency is what a serving SLO actually buys, and Lightning's flat
// tail is the operational story behind Fig 21's averages.
func Tails(w io.Writer, requests int, seed uint64) error {
	header(w, "Serve-time percentiles at 95% baseline utilization")
	models := model.SimulationModels()
	bench := sim.NewA100()
	rate := sim.RateForUtilization(bench, models, 0.95)
	tr := sim.GenerateTrace(models, requests, rate, seed)
	accs := []*sim.Accelerator{sim.NewLightning(), sim.NewA100(), sim.NewA100X(), sim.NewBrainwave()}
	fmt.Fprintf(w, "%-10s %14s %14s %14s %14s\n", "platform", "p50", "p90", "p99", "max")
	for _, a := range accs {
		served := sim.Run(a, tr)
		xs := make([]float64, len(served))
		for i, s := range served {
			xs[i] = s.ServeTime().Seconds() * 1e6
		}
		cdf := stats.NewCDF(xs)
		fmt.Fprintf(w, "%-10s %12.1fµs %12.1fµs %12.1fµs %12.1fµs\n",
			a.Platform.Name, cdf.Percentile(0.5), cdf.Percentile(0.9),
			cdf.Percentile(0.99), cdf.Percentile(1))
	}
	fmt.Fprintln(w, "(arrival rate calibrated to the A100; Lightning runs far below saturation)")
	return nil
}

// Sweep prints the utilization sweep: how queueing at the saturated
// baseline amplifies Lightning's serve-time advantage — the mechanism
// behind Fig 21's magnitudes.
func Sweep(w io.Writer, requests int, seed uint64) error {
	header(w, "Utilization sweep: queueing amplification of Lightning's advantage")
	models := model.SimulationModels()
	utils := []float64{0.5, 0.7, 0.9, 0.95, 0.99}
	fmt.Fprintf(w, "%-6s %16s %16s %10s\n", "util", "A100 serve", "Lightning serve", "speedup")
	for _, p := range sim.UtilizationSweep(sim.NewA100(), models, utils, requests, seed) {
		fmt.Fprintf(w, "%-6.2f %16s %16s %9.1f×\n",
			p.Utilization, p.BaselineServe, p.LightningServe, p.Speedup())
	}
	return nil
}

// Fig4 compares end-to-end inference latency CDFs: the stop-and-go
// state-of-the-art photonic pipeline against Lightning, for n LeNet-class
// image inferences.
func Fig4(w io.Writer, n int, seed uint64) error {
	header(w, "Fig 4: end-to-end inference latency CDF, Lightning vs state of the art")
	res := sim.Fig4(model.LeNet300100(), n, seed)
	soa := stats.NewCDF(res.StateOfTheArtMS)
	light := stats.NewCDF(res.LightningMS)
	fmt.Fprintf(w, "%-12s %14s %14s\n", "percentile", "state-of-art", "Lightning")
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		fmt.Fprintf(w, "p%-11.0f %11.1f ms %11.4f ms\n", p*100, soa.Percentile(p), light.Percentile(p))
	}
	ratio := soa.Median() / light.Median()
	fmt.Fprintf(w, "median gap: %.2g× (the paper's \"5 orders of magnitude\")\n", ratio)
	return nil
}

// Fig15 prints the prototype-scale latency comparison for the three §6.3
// models: end-to-end, compute, and datapath latencies on Lightning, P4 and
// A100.
func Fig15(w io.Writer) error {
	header(w, "Fig 15: end-to-end inference latency breakdown (prototype models)")
	fmt.Fprintf(w, "%-24s %-10s %12s %12s %12s\n", "model", "platform", "e2e", "compute", "datapath")
	for _, row := range sim.Fig15() {
		for _, b := range []sim.Breakdown{row.Lightning, row.P4, row.A100} {
			fmt.Fprintf(w, "%-24s %-10s %12s %12s %12s\n",
				row.Model.Name, b.Platform, b.EndToEnd(), b.Compute, b.Datapath)
		}
		fmt.Fprintf(w, "%-24s speedup vs P4: %.1f×   vs A100: %.1f×\n",
			"", row.SpeedupP4(), row.SpeedupA100())
	}
	fmt.Fprintln(w, "(paper: security 499×/379×, traffic 508×/350×, LeNet 9.4×/6.6×)")
	return nil
}

// Fig19 runs the accuracy emulation over the four proxy networks and prints
// top-5 agreement with the fp32 reference per scheme.
func Fig19(w io.Writer, inputs int, seed uint64) error {
	header(w, "Fig 19: emulated top-5 accuracy, photonic-8bit vs digital")
	e := emu.NewCalibrated(seed)
	fmt.Fprintf(w, "%-16s %14s %14s %14s\n", "model", "Lightning", "Digital-8bit", "Digital-32bit")
	for _, net := range emu.EmulationProxies(seed + 10) {
		res := e.Evaluate(net, inputs, seed+100)
		byScheme := map[emu.Scheme]emu.AgreementResult{}
		for _, r := range res {
			byScheme[r.Scheme] = r
		}
		fmt.Fprintf(w, "%-16s %13.1f%% %13.1f%% %13.1f%%\n",
			net.Name,
			byScheme[emu.SchemePhotonic8].Top5*100,
			byScheme[emu.SchemeInt8].Top5*100,
			byScheme[emu.SchemeFP32].Top5*100)
	}
	fmt.Fprintln(w, "(paper: Lightning within 2.25% of 8-bit digital on all four models)")
	return nil
}

// fig2122 runs the §9 large-scale simulation and prints per-model serve-time
// speedups (Fig 21) or energy savings (Fig 22) plus the headline averages.
func fig2122(w io.Writer, cfg sim.CompareConfig, speedup bool) error {
	title, col, unit, k := "Fig 22: large-scale simulation — energy consumption savings", "energy-sav", "less energy", 1
	if speedup {
		title, col, unit, k = "Fig 21: large-scale simulation — inference serve-time speedup", "speedup", "faster", 0
	}
	header(w, title)
	cs, err := sim.Compare(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-10s %12s\n", "model", "baseline", col)
	for _, c := range cs {
		v := c.EnergySavings
		if speedup {
			v = c.Speedup
		}
		fmt.Fprintf(w, "%-12s %-10s %11.1f×\n", c.Model, c.Baseline, v)
	}
	avg := sim.AverageByBaseline(cs)
	for _, b := range []string{"A100", "A100X", "Brainwave"} {
		fmt.Fprintf(w, "average vs %-10s: %7.1f× %s\n", b, avg[b][k], unit)
	}
	fmt.Fprintln(w, "(paper: 337×/329×/42× faster; 352×/419×/54× less energy)")
	return nil
}

// Table6 prints the simulation settings table: model sizes, query sizes,
// and per-platform datapath latencies.
func Table6(w io.Writer) error {
	header(w, "Table 6: DNN models and datapath latencies used in simulation")
	light := sim.NewLightning()
	a100 := sim.NewA100()
	fmt.Fprintf(w, "%-12s %10s %10s %8s %14s %14s %6s %6s\n",
		"model", "size(MB)", "query(KB)", "type", "lightning(µs)", "a100(µs)", "a100x", "brainw")
	for _, m := range model.SimulationModels() {
		fmt.Fprintf(w, "%-12s %10.0f %10.2f %8s %14.3f %14.0f %6d %6d\n",
			m.Name, m.SizeMB(), float64(m.QueryBytes)/1024, m.Domain,
			light.Datapath(m).Seconds()*1e6, a100.Datapath(m).Seconds()*1e6, 0, 0)
	}
	return nil
}
