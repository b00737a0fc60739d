// Package compare is the benchmark's comparator: it reads two sets of
// recorded runs and says, per workload and end-to-end metric, whether the
// second set is the same as, better than or worse than the first — or that
// the runs cannot tell. Standard library only.
package compare

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"github.com/lightning-smartnic/lightning/benchmark/estimate"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Record is one run as -record appends it: a JSON object per line.
type Record struct {
	Workload    string            `json:"workload"`
	Traced      bool              `json:"traced"`
	Env         map[string]string `json:"env"`
	Correct     bool              `json:"correct"`
	Counts      map[string]uint64 `json:"counts"`
	Metrics     map[string]Metric `json:"metrics"`
	Diagnostics map[string]Metric `json:"diagnostics"`
	// Slices holds the timed window's unscaled per-slice rows, columns
	// SliceColumns, so an odd run can be looked into after the fact.
	Slices [][]float64 `json:"slices,omitempty"`
}

// SliceColumns names the columns of Record.Slices.
var SliceColumns = []string{"ref_us", "elapsed_s", "good", "p50_us", "p99_us", "mean_us", "cpu_us"}

// Append adds one record to the file at path as a JSON line.
func Append(path string, rec Record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return fmt.Errorf("compare: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("compare: closing %s: %w", path, err)
	}
	return nil
}

// Read loads every record of a -record file.
func Read(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("compare: %s line %d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("compare: reading %s: %w", path, err)
	}
	return out, nil
}

// Def fixes an end-to-end metric's direction and the share of the first
// set's median by which it may worsen before the change counts as a
// regression. BENCHMARK.json carries the same table; a test keeps the two
// equal.
type Def struct {
	Name       string
	Unit       string
	HigherGood bool
	Bound      float64
	// RawDiagName names the unscaled twin a host-time metric prints as a
	// diagnostic ("" for metrics the reference kernel does not scale).
	RawDiagName string
}

// EndToEnd lists the end-to-end metrics in report order.
var EndToEnd = []Def{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "goodput_qps", Unit: "1/s", HigherGood: true, Bound: 0.25, RawDiagName: "host.goodput_qps_raw"},
	{Name: "latency_p50_us", Unit: "us", Bound: 0.25, RawDiagName: "host.latency_p50_us_raw"},
	{Name: "cpu_us_per_query", Unit: "us", Bound: 0.25, RawDiagName: "host.cpu_us_per_query_raw"},
	{Name: "ok_frac", Unit: "frac", HigherGood: true, Bound: 0.001},
	{Name: "agree_frac", Unit: "frac", HigherGood: true, Bound: 0.005},
	{Name: "modeled_us_per_query", Unit: "us", Bound: 0.02},
	{Name: "allocs_per_query", Unit: "1", Bound: 0.02},
	{Name: "live_heap_mb", Unit: "MB", Bound: 0.10},
}

// Verdict is the comparator's answer for one workload and metric.
type Verdict string

// The four answers. Unresolved means the run-to-run spread is wider than
// the bound and the two sets' runs overlap: the sets cannot tell.
const (
	Same       Verdict = "same"
	Better     Verdict = "better"
	Worse      Verdict = "worse"
	Unresolved Verdict = "unresolved"
)

// Row is one compared workload and metric.
type Row struct {
	Workload string
	Def      Def
	A, B     Summary
	// Diff is the second set's median relative to the first's, signed so
	// that positive is worse.
	Diff    float64
	Verdict Verdict
}

// Summary describes one set's runs of a metric.
type Summary struct {
	N              int
	Q1, Median, Q3 float64
	Min, Max       float64
}

// Spread is the interquartile distance as a share of the median.
func (s Summary) Spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

// Range is (max − min) as a share of the median.
func (s Summary) Range() float64 { return (s.Max - s.Min) / math.Abs(s.Median) }

// Summarize computes a set's summary with the acceptance driver's quartile
// rule.
func Summarize(xs []float64) Summary {
	q1, q2, q3 := estimate.Quartiles(xs)
	s := Summary{N: len(xs), Q1: q1, Median: q2, Q3: q3, Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}

// Judge compares two sets of one metric.
func Judge(def Def, a, b []float64) (Summary, Summary, float64, Verdict) {
	sa, sb := Summarize(a), Summarize(b)
	diff := (sb.Median - sa.Median) / math.Abs(sa.Median)
	if def.HigherGood && diff != 0 {
		diff = -diff
	}
	overlap := sa.Min <= sb.Max && sb.Min <= sa.Max
	spread := math.Max(sa.Spread(), sb.Spread())
	switch {
	case spread > def.Bound && overlap:
		return sa, sb, diff, Unresolved
	case diff > def.Bound:
		return sa, sb, diff, Worse
	case diff < -def.Bound:
		return sa, sb, diff, Better
	}
	return sa, sb, diff, Same
}

// values collects, per workload, the untraced runs' values of a metric (or
// of a diagnostic when diag is set).
func values(recs []Record, name string, diag bool) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range recs {
		if r.Traced {
			continue
		}
		src := r.Metrics
		if diag {
			src = r.Diagnostics
		}
		if m, ok := src[name]; ok {
			out[r.Workload] = append(out[r.Workload], m.Value)
		}
	}
	return out
}

// Sets compares two record sets over every workload both contain.
func Sets(a, b []Record) []Row {
	var rows []Row
	for _, def := range EndToEnd {
		va, vb := values(a, def.Name, false), values(b, def.Name, false)
		for w := range va {
			if len(vb[w]) == 0 {
				continue
			}
			sa, sb, diff, v := Judge(def, va[w], vb[w])
			rows = append(rows, Row{Workload: w, Def: def, A: sa, B: sb, Diff: diff, Verdict: v})
		}
	}
	order := make(map[string]int)
	for i, def := range EndToEnd {
		order[def.Name] = i
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return order[rows[i].Def.Name] < order[rows[j].Def.Name]
	})
	return rows
}

// Files compares two -record files, prints the verdict table and, for the
// host-time metrics, the run-to-run range of the scaled figures beside that
// of their raw twins. It reports whether any row read worse.
func Files(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := Read(pathA)
	if err != nil {
		return false, err
	}
	b, err := Read(pathB)
	if err != nil {
		return false, err
	}
	rows := Sets(a, b)
	if len(rows) == 0 {
		return false, fmt.Errorf("compare: %s and %s share no workload with untraced runs", pathA, pathB)
	}
	fmt.Fprintf(w, "A = %s   B = %s   (median [q1, q3] over n runs; diff > 0 is worse)\n", pathA, pathB)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tdiff\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.2f%%\t%.2f%%\t%s\n",
			r.Workload, r.Def.Name, r.Def.Unit, fmtSummary(r.A), fmtSummary(r.B), 100*r.Diff, 100*r.Def.Bound, r.Verdict)
		if r.Verdict == Worse {
			worse = true
		}
	}
	if err := tw.Flush(); err != nil {
		return worse, err
	}
	fmt.Fprintln(w, "\nrun-to-run range (max-min)/median, scaled by the reference kernel vs raw:")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA scaled\tA raw\tB scaled\tB raw")
	for _, r := range rows {
		if r.Def.RawDiagName == "" {
			continue
		}
		ra := Summarize(values(a, r.Def.RawDiagName, true)[r.Workload])
		rb := Summarize(values(b, r.Def.RawDiagName, true)[r.Workload])
		fmt.Fprintf(tw, "%s\t%s\t%.2f%%\t%.2f%%\t%.2f%%\t%.2f%%\n",
			r.Workload, r.Def.Name, 100*r.A.Range(), 100*ra.Range(), 100*r.B.Range(), 100*rb.Range())
	}
	return worse, tw.Flush()
}

func fmtSummary(s Summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", s.Median, s.Q1, s.Q3, s.N)
}
