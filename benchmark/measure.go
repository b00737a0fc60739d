package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	lightning "github.com/lightning-smartnic/lightning"
	"github.com/lightning-smartnic/lightning/benchmark/estimate"
	"github.com/lightning-smartnic/lightning/benchmark/live"
	"github.com/lightning-smartnic/lightning/benchmark/workload"
)

// Hardware clocks of the prototype (§6.1): photonic steps run at the
// 4.055 GS/s analog sample rate, compute and datapath cycles at the
// 253.44 MHz digital clock.
const (
	photonicHz = 4.055e9
	digitalHz  = 253.44e6
)

// setupRuns is how many cold constructions setup_s is taken over.
const setupRuns = 101

// warmupSlices run before the timed window so caches, pools and the
// runtime's lazy set-up are out of the way.
const warmupSlices = 2

// modeledUS converts a delta of NIC cycle counters to simulated hardware
// microseconds.
func modeledUS(a, b lightning.Metrics) float64 {
	steps := float64(b.PhotonicSteps - a.PhotonicSteps)
	cycles := float64(b.ComputeCycles-a.ComputeCycles) + float64(b.DatapathCycles-a.DatapathCycles)
	return (steps/photonicHz + cycles/digitalHz) * 1e6
}

// measureSetup times setupRuns cold constructions of the workload's NIC
// (lightning.New + RegisterModel), a collection before each and the reference
// kernel between them, and returns the lower quartile of the construction
// times scaled by the factor of the kernel's median over the phase, in
// seconds, plus the unscaled lower quartile. The lower quartile, not the
// median: a construction is a millisecond of allocation-heavy work, and what
// disturbs it (a background collection, a descheduled thread) only ever makes
// it longer. One factor for the phase, not one per construction: two 4 ms
// kernel runs say little about the millisecond between them, and a kernel run
// that lost a time slice would turn its neighbour into the fastest
// construction of the run.
func measureSetup(w *workload.Workload, ref *estimate.Ref) (scaled, raw float64, err error) {
	times := make([]float64, 0, setupRuns)
	kernel := []float64{ref.Run()}
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		start := time.Now()
		n, err := live.NewNIC(w)
		d := time.Since(start)
		if err != nil {
			return 0, 0, fmt.Errorf("constructing NIC: %w", err)
		}
		if err := n.Close(); err != nil {
			return 0, 0, fmt.Errorf("closing NIC: %w", err)
		}
		times = append(times, d.Seconds())
		kernel = append(kernel, ref.Run())
	}
	raw = estimate.Quantile(times, 0.25)
	return raw / estimate.Factor(estimate.Median(kernel)), raw, nil
}

// windowStats folds the timed window's slices into the scaled and raw
// end-to-end figures.
type windowStats struct {
	goodput, p50, p99, mean, cpu estimate.Series
	refUS                        []float64
	samples                      int
}

func foldSlices(stats []live.SliceStats) windowStats {
	var ws windowStats
	for _, st := range stats {
		ws.refUS = append(ws.refUS, st.RefUS)
		if st.Good == 0 {
			continue
		}
		f := estimate.Factor(st.RefUS)
		ws.samples += st.Good
		ws.goodput.Add(float64(st.Good)/st.Elapsed.Seconds(), f)
		ws.p50.Add(st.P50, f)
		ws.p99.Add(st.P99, f)
		ws.mean.Add(st.Mean, f)
		ws.cpu.Add(st.CPUUS/float64(st.Good), f)
	}
	return ws
}

// liveRun is one served window: the NIC's counter deltas, the client's
// failure accounting, the per-slice figures, and the memory readings around
// it.
type liveRun struct {
	slices       []live.SliceStats
	ws           windowStats
	counts       live.Counts
	before       lightning.Metrics
	after        lightning.Metrics
	mallocs      uint64
	allocBytes   uint64
	liveHeapMB   float64
	clientReads  uint64
	clientWrites uint64
}

func (r *liveRun) served() float64 { return float64(r.after.Served - r.before.Served) }

// serve builds the workload's NIC, serves it on a fresh loopback socket,
// warms it up and drives the given slices with the workload's own client
// shape, or — window1 — with one connection at window 1. prepare, when
// non-nil, runs on the client after the warm-up; the traced run attaches its
// recorder there.
func serve(w *workload.Workload, ref *estimate.Ref, window1 bool, warmup, slices []live.Slice, prepare func(*live.Client) error) (*liveRun, error) {
	conns, window := 0, 0
	if window1 {
		conns, window = 1, 1
	}
	pc, err := live.Listen()
	if err != nil {
		return nil, err
	}
	client, err := live.Dial(w, pc.LocalAddr().(*net.UDPAddr), conns, window, ref)
	if err != nil {
		pc.Close()
		return nil, err
	}
	defer client.Close()
	baseMB := live.HeapAllocMB()

	n, err := live.NewNIC(w)
	if err != nil {
		pc.Close()
		return nil, err
	}
	srv := live.Start(context.Background(), w, n, pc)
	stopped := false
	defer func() {
		if !stopped {
			// An earlier error is the one worth reporting.
			_ = srv.Stop()
		}
	}()

	if _, err := client.Run(warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if prepare != nil {
		if err := prepare(client); err != nil {
			return nil, err
		}
	}
	r := &liveRun{before: n.Metrics()}
	counts0 := client.Counts()
	reads0, writes0 := client.Syscalls()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stats, err := client.Run(slices)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	r.after = n.Metrics()
	r.counts = client.Counts()
	r.counts.Sub(counts0)
	reads1, writes1 := client.Syscalls()
	r.clientReads, r.clientWrites = reads1-reads0, writes1-writes0
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.liveHeapMB = live.HeapAllocMB() - baseMB
	r.slices = stats
	r.ws = foldSlices(stats)
	stopped = true
	if err := srv.Stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}
	return r, nil
}

// slicesPerSecond is how many SliceDur slices a second of window holds.
const slicesPerSecond = int(time.Second / live.SliceDur)

// timeSlices is n slices of SliceDur each.
func timeSlices(n int) []live.Slice {
	out := make([]live.Slice, n)
	for i := range out {
		out[i].Dur = live.SliceDur
	}
	return out
}

// measure is the untraced run: it reports every end-to-end metric.
func measure(w *workload.Workload, seconds int, rep *report) error {
	ref := estimate.NewRef()
	ref.Run()
	setupS, setupRaw, err := measureSetup(w, ref)
	if err != nil {
		return err
	}
	r, err := serve(w, ref, false, timeSlices(warmupSlices), timeSlices(seconds*slicesPerSecond), nil)
	if err != nil {
		return err
	}
	good := float64(r.counts.Good)
	rep.counts = r.counts
	rep.slices = r.slices
	rep.metric("setup_s", setupS, "s")
	rep.metric("goodput_qps", r.ws.goodput.MedianRate(), "1/s")
	rep.metric("latency_p50_us", r.ws.p50.MedianTime(), "us")
	rep.metric("cpu_us_per_query", r.ws.cpu.MedianTime(), "us")
	rep.metric("ok_frac", r.counts.OKFrac(), "frac")
	rep.metric("agree_frac", r.counts.AgreeFrac(), "frac")
	rep.metric("modeled_us_per_query", modeledUS(r.before, r.after)/r.served(), "us")
	rep.metric("allocs_per_query", float64(r.mallocs)/good, "1")
	rep.metric("live_heap_mb", r.liveHeapMB, "MB")

	rep.diag("latency_p99_us", r.ws.p99.MedianTime(), "us")
	rep.diag("setup_s_raw", setupRaw, "s")
	rep.hostDiagnostics(r)
	rep.check(w, r)
	// A p99 needs at least ten samples beyond it over the run.
	if r.ws.samples < 1000 {
		rep.fail("only %d latency samples: fewer than ten lie beyond p99", r.ws.samples)
	}
	return nil
}
