package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/lightning-smartnic/lightning/benchmark/compare"
	"github.com/lightning-smartnic/lightning/benchmark/trace"
	"github.com/lightning-smartnic/lightning/benchmark/workload"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// lastLine parses the contract's final output line.
func lastLine(t *testing.T, out string) (correct bool, metrics map[string]compare.Metric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last struct {
		Correct   bool                      `json:"correct"`
		Attempted uint64                    `json:"attempted"`
		Failed    uint64                    `json:"failed"`
		Metrics   map[string]compare.Metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line is not the contract's object: %v\n%s", err, lines[len(lines)-1])
	}
	if last.Attempted < 1 {
		t.Errorf("attempted = %d", last.Attempted)
	}
	if last.Failed != 0 {
		t.Errorf("failed = %d", last.Failed)
	}
	return last.Correct, last.Metrics
}

func names(ms []contractMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func keys(ms map[string]compare.Metric) []string {
	out := make([]string, 0, len(ms))
	for k := range ms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BENCHMARK.json, the workload specs and the comparator's metric table are
// three statements of one contract; they must agree.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workload.Specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(c.Workloads), len(workload.Specs))
	}
	for i, s := range workload.Specs {
		if c.Workloads[i].Name != s.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, c.Workloads[i].Name, s.Name)
		}
	}
	if len(c.EndToEnd) != len(compare.EndToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the comparator %d", len(c.EndToEnd), len(compare.EndToEnd))
	}
	for i, d := range compare.EndToEnd {
		m := c.EndToEnd[i]
		better := "lower"
		if d.HigherGood {
			better = "higher"
		}
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better || m.Bound == nil || *m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, comparator %+v", i, m, d)
		}
	}
	if c.RunSeconds < 12 {
		t.Errorf("run_seconds %d: windows under 12 s do not repeat within the bounds", c.RunSeconds)
	}
}

// One untraced run prints every end-to-end metric of the contract, with its
// unit, and nothing else in the last line.
func TestUntracedRunReportsEveryEndToEndMetric(t *testing.T) {
	c := readContract(t)
	var out, errOut bytes.Buffer
	rec := filepath.Join(t.TempDir(), "runs.jsonl")
	if code := run([]string{"--workload", "wire_small", "--seed", "3", "--seconds", "1", "--trace", "0", "-record", rec}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
	}
	correct, metrics := lastLine(t, out.String())
	if !correct {
		t.Errorf("run reported incorrect:\n%s", out.String())
	}
	if got, want := keys(metrics), names(c.EndToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("metrics %v, contract %v", got, want)
	}
	for _, m := range c.EndToEnd {
		if metrics[m.Name].Unit != m.Unit {
			t.Errorf("%s: unit %q, contract %q", m.Name, metrics[m.Name].Unit, m.Unit)
		}
		if metrics[m.Name].Value <= 0 {
			t.Errorf("%s = %v, must never be 0", m.Name, metrics[m.Name].Value)
		}
	}
	recs, err := compare.Read(rec)
	if err != nil || len(recs) != 1 {
		t.Fatalf("record file: %d records, err %v", len(recs), err)
	}
	for _, k := range []string{"gomaxprocs", "go_version", "nproc", "seed", "seconds", "netbatch_fastpath"} {
		if recs[0].Env[k] == "" {
			t.Errorf("record env lacks %s", k)
		}
	}
	for _, k := range []string{"wrong", "err", "undecodable", "timeout"} {
		if _, ok := recs[0].Counts[k]; !ok {
			t.Errorf("record counts lack %s", k)
		}
	}
}

// A short traced run of every workload: every query answered, answers agree
// with the oracle, the replay's photonic steps equal the live NIC's (the run
// reports itself incorrect otherwise), every per-layer metric present, and a
// readable trace file written.
func TestTracedSmokeOfEveryWorkload(t *testing.T) {
	c := readContract(t)
	dir := t.TempDir()
	for _, spec := range workload.Specs {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", spec.Name, "--seed", "2", "--seconds", "1", "--trace", "1", "-out", dir}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d: %s\n%s", spec.Name, code, errOut.String(), out.String())
		}
		correct, metrics := lastLine(t, out.String())
		if !correct {
			t.Errorf("%s: run reported incorrect:\n%s", spec.Name, out.String())
		}
		if got, want := keys(metrics), names(c.PerLayer); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: metrics %v, contract %v", spec.Name, got, want)
		}
		for _, m := range c.PerLayer {
			if metrics[m.Name].Unit != m.Unit {
				t.Errorf("%s %s: unit %q, contract %q", spec.Name, m.Name, metrics[m.Name].Unit, m.Unit)
			}
		}
		if spec.Batch.Enabled() && metrics["nic.batch_full_flush_frac"].Value < minFullFlushFrac {
			t.Errorf("%s: full-flush share %v", spec.Name, metrics["nic.batch_full_flush_frac"].Value)
		}

		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+spec.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var f trace.File
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatalf("%s: trace file: %v", spec.Name, err)
		}
		if f.Env["seed"] != "2" || f.Env["go_version"] == "" {
			t.Errorf("%s: trace env %v", spec.Name, f.Env)
		}
		perQuery := 6 + 2 + 4*modelLayers(t, spec.Name)
		if want := spec.TracePerSecond * perQuery; len(f.Spans) != want {
			t.Errorf("%s: %d spans, want %d", spec.Name, len(f.Spans), want)
		}
		for _, s := range f.Spans {
			if parent := s[1]; parent >= 0 && f.Spans[parent][3] != s[3] {
				t.Fatalf("%s: span %d belongs to query %d, its parent to %d", spec.Name, s[0], s[3], f.Spans[parent][3])
			}
		}
	}
}

func modelLayers(t *testing.T, name string) int {
	t.Helper()
	w, err := workload.Build(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return len(w.Model.Layers)
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-trace", "2"},
		{"-compare", "only-one"},
		{"stray"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a result: %s", args, out.String())
		}
	}
}
