// Command benchmark is the repository's one canonical benchmark: four
// workloads followed from client send to client receive through a real
// loopback UDP socket, every host-time figure scaled by a reference kernel
// run beside it, every answer checked against a noiseless oracle.
//
//	go -C benchmark run . -workload wire_small -seed 1 -seconds 20
//	go -C benchmark run . -workload wire_small -trace 1
//	go -C benchmark run . -compare a.jsonl b.jsonl
//
// See README.md in this directory for the workloads, the metrics and how to
// read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"github.com/lightning-smartnic/lightning/benchmark/compare"
	"github.com/lightning-smartnic/lightning/benchmark/estimate"
	"github.com/lightning-smartnic/lightning/benchmark/live"
	"github.com/lightning-smartnic/lightning/benchmark/workload"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
)

// minOKFrac is the share of queries sent that must come back as good
// responses for a run to count as correct.
const minOKFrac = 0.999

// minAgreeFrac is the share of responses whose class must equal the
// noiseless oracle's. Analog noise is on, so agreement is not exact by
// construction; on these pools it measures 1.
const minAgreeFrac = 0.99

// minFullFlushFrac is the share of batch flushes that must be full ones on
// a batching workload: a batch flushed by its real-time delay timer waited a
// fixed wall-clock interval, which host-speed scaling cannot correct.
const minFullFlushFrac = 0.95

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: wire_small | mlp_serial | mlp_batched | vision_frag | all")
	seed := fs.Uint64("seed", 1, "seed the query pools are drawn from")
	seconds := fs.Int("seconds", 20, "length of the timed window in seconds (do not compare runs below 12)")
	traced := fs.Int("trace", 0, "0: untraced run reporting the end-to-end metrics; 1: traced run reporting the per-layer metrics")
	outDir := fs.String("out", "benchmark/out", "directory trace files are written to")
	record := fs.String("record", "", "append each run's result as one JSON line to this file (input of -compare)")
	cmp := fs.Bool("compare", false, "compare two -record files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two record files")
			return 2
		}
		worse, err := compare.Files(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1, -trace 0 or 1, and no other arguments given")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, s := range workload.Specs {
			names = append(names, s.Name)
		}
	}
	// The host has 2 CPUs; pin the scheduler's width so a bigger machine
	// measures the same thing.
	runtime.GOMAXPROCS(2)
	code := 0
	for _, n := range names {
		rep, err := runOne(n, *seed, *seconds, *traced == 1, *outDir)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", n, err)
			return 1
		}
		if err := rep.print(stdout, *record); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", n, err)
			return 1
		}
		if !rep.correct {
			code = 1
		}
	}
	return code
}

func runOne(name string, seed uint64, seconds int, traced bool, outDir string) (*report, error) {
	start := time.Now()
	w, err := workload.Build(name, seed)
	if err != nil {
		return nil, err
	}
	rep := newReport(w, seconds, traced)
	rep.prepS = time.Since(start).Seconds()
	if traced {
		err = tracedRun(w, seconds, outDir, rep)
	} else {
		err = measure(w, seconds, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// environment is recorded in every output file.
func environment(seed uint64, seconds int) map[string]string {
	return map[string]string{
		"gomaxprocs":        strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go_version":        runtime.Version(),
		"nproc":             strconv.Itoa(runtime.NumCPU()),
		"seed":              strconv.FormatUint(seed, 10),
		"seconds":           strconv.Itoa(seconds),
		"netbatch_fastpath": strconv.FormatBool(netbatch.FastPathAvailable()),
		"ref_nominal_us":    strconv.FormatFloat(estimate.RefNominalUS, 'f', -1, 64),
	}
}

// report collects one run's output: the metrics the contract's last line
// carries, diagnostics printed beside them, and the correctness verdict.
type report struct {
	w       *workload.Workload
	seconds int
	traced  bool
	prepS   float64

	// metrics go into the contract's last line; diags are printed beside
	// them. Both keep report order.
	metrics []named
	diags   []named
	counts  live.Counts
	slices  []live.SliceStats
	correct bool
	reasons []string
	// note is a free-form line printed with the report (the trace file's
	// path).
	note string
}

// named is one reported value.
type named struct {
	name string
	compare.Metric
}

func byName(ms []named) map[string]compare.Metric {
	out := make(map[string]compare.Metric, len(ms))
	for _, m := range ms {
		out[m.name] = m.Metric
	}
	return out
}

func newReport(w *workload.Workload, seconds int, traced bool) *report {
	return &report{w: w, seconds: seconds, traced: traced, correct: true}
}

func (r *report) metric(name string, v float64, unit string) {
	r.metrics = append(r.metrics, named{name, compare.Metric{Value: v, Unit: unit}})
}

func (r *report) diag(name string, v float64, unit string) {
	r.diags = append(r.diags, named{name, compare.Metric{Value: v, Unit: unit}})
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.reasons = append(r.reasons, fmt.Sprintf(format, args...))
}

// hostDiagnostics records the unscaled host figures and how rough the host
// was: printed beside the scaled metrics, never compared.
func (r *report) hostDiagnostics(lr *liveRun) {
	r.diag("host.goodput_qps_raw", lr.ws.goodput.MedianRaw(), "1/s")
	r.diag("host.latency_p50_us_raw", lr.ws.p50.MedianRaw(), "us")
	r.diag("host.latency_p99_us_raw", lr.ws.p99.MedianRaw(), "us")
	r.diag("host.cpu_us_per_query_raw", lr.ws.cpu.MedianRaw(), "us")
	r.diag("ref.kernel_us", estimate.Median(lr.ws.refUS), "us")
	r.diag("ref.kernel_p90_over_p10", estimate.Quantile(lr.ws.refUS, 0.9)/estimate.Quantile(lr.ws.refUS, 0.1), "x")
	r.diag("latency_samples", float64(lr.ws.samples), "count")
	r.diag("harness.prep_s", r.prepS, "s")
}

// check applies the run's correctness gates.
func (r *report) check(w *workload.Workload, lr *liveRun) {
	c := lr.counts
	if ok := c.OKFrac(); ok < minOKFrac {
		r.fail("ok_frac %.5f below %.3f", ok, minOKFrac)
	}
	if agree := c.AgreeFrac(); agree < minAgreeFrac {
		r.fail("agree_frac %.5f below %.2f", agree, minAgreeFrac)
	}
	if w.Batch.Enabled() {
		full, _ := flushFracs(lr)
		if full < minFullFlushFrac {
			r.fail("nic.batch_full_flush_frac %.4f below %.2f: batches are filling by timer, not by count", full, minFullFlushFrac)
		}
		r.diag("nic.batch_full_flush_frac", full, "frac")
	}
}

// flushFracs returns the share of a window's batch flushes that were full,
// and the mean batch size.
func flushFracs(lr *liveRun) (fullFrac, meanSize float64) {
	a, b := lr.before.Batch, lr.after.Batch
	flushes := float64(b.Flushes - a.Flushes)
	if flushes == 0 {
		return 0, 0
	}
	return float64(b.FullFlushes-a.FullFlushes) / flushes, float64(b.Queries-a.Queries) / flushes
}

// print writes the human-readable report, appends the record line when
// asked, and ends with the contract's JSON object as the last line.
func (r *report) print(stdout io.Writer, recordPath string) error {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %d  %s\n", r.w.Name, r.w.Seed, r.seconds, mode)
	env := environment(r.w.Seed, r.seconds)
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "env %s %s\n", k, env[k])
	}
	c := r.counts
	fmt.Fprintf(stdout, "counts sent %d good %d wrong %d err %d undecodable %d timeout %d late %d\n",
		c.Sent, c.Good, c.Wrong, c.Err, c.Undecodable, c.Timeout, c.Late)
	for _, m := range r.metrics {
		fmt.Fprintf(stdout, "metric %s %s %s\n", m.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, m := range r.diags {
		fmt.Fprintf(stdout, "diagnostic %s %s %s\n", m.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	if r.note != "" {
		fmt.Fprintln(stdout, r.note)
	}
	for _, why := range r.reasons {
		fmt.Fprintf(stdout, "INCORRECT %s\n", why)
	}
	if recordPath != "" {
		rec := compare.Record{
			Workload:    r.w.Name,
			Traced:      r.traced,
			Env:         env,
			Correct:     r.correct,
			Counts:      map[string]uint64{"sent": c.Sent, "good": c.Good, "wrong": c.Wrong, "err": c.Err, "undecodable": c.Undecodable, "timeout": c.Timeout, "late": c.Late},
			Metrics:     byName(r.metrics),
			Diagnostics: byName(r.diags),
		}
		for _, st := range r.slices {
			rec.Slices = append(rec.Slices, []float64{st.RefUS, st.Elapsed.Seconds(), float64(st.Good), st.P50, st.P99, st.Mean, st.CPUUS})
		}
		if err := compare.Append(recordPath, rec); err != nil {
			return err
		}
	}
	last := struct {
		Correct   bool                      `json:"correct"`
		Attempted uint64                    `json:"attempted"`
		Failed    uint64                    `json:"failed"`
		Metrics   map[string]compare.Metric `json:"metrics"`
	}{r.correct, c.Sent, c.Failed(), byName(r.metrics)}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
