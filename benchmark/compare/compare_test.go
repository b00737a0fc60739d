package compare

import (
	"bytes"
	"path/filepath"
	"testing"
)

func def(name string) Def {
	for _, d := range EndToEnd {
		if d.Name == name {
			return d
		}
	}
	panic("no such metric " + name)
}

func jitter(base, rel float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		// A fixed zig-zag of ±rel/2 around base.
		out[i] = base * (1 + rel*(float64(i%5)/4-0.5))
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	lat := def("latency_p50_us") // lower is better
	qps := def("goodput_qps")    // higher is better
	tight := lat.Bound / 10
	cases := []struct {
		name string
		def  Def
		a, b []float64
		want Verdict
	}{
		{"A/A tight", lat, jitter(100, tight, 10), jitter(100.2, tight, 10), Same},
		{"slower beyond bound", lat, jitter(100, tight, 10), jitter(100*(1+2*lat.Bound), tight, 10), Worse},
		{"faster beyond bound", lat, jitter(100, tight, 10), jitter(100*(1-2*lat.Bound), tight, 10), Better},
		{"rate dropped beyond bound", qps, jitter(5e4, tight, 10), jitter(5e4*(1-2*qps.Bound), tight, 10), Worse},
		{"rate rose beyond bound", qps, jitter(5e4, tight, 10), jitter(5e4*(1+2*qps.Bound), tight, 10), Better},
		{"wide spread, overlapping", lat, jitter(100, 3*lat.Bound, 10), jitter(103, 3*lat.Bound, 10), Unresolved},
		{"wide spread, every B run better", lat, jitter(100, 3*lat.Bound, 10), jitter(10, 3*lat.Bound, 10), Better},
		{"small shift inside bound", lat, jitter(100, tight, 10), jitter(100*(1+lat.Bound/2), tight, 10), Same},
	}
	for _, c := range cases {
		_, _, diff, got := Judge(c.def, c.a, c.b)
		if got != c.want {
			t.Errorf("%s: verdict %s (diff %+.3f), want %s", c.name, got, diff, c.want)
		}
	}
}

func record(workload string, lat, qps float64) Record {
	return Record{
		Workload: workload, Correct: true,
		Metrics:     map[string]Metric{"latency_p50_us": {lat, "us"}, "goodput_qps": {qps, "1/s"}},
		Diagnostics: map[string]Metric{"host.latency_p50_us_raw": {lat * 1.1, "us"}, "host.goodput_qps_raw": {qps / 1.1, "1/s"}},
	}
}

// Files round-trips records through -record's format and flags a set whose
// latency got worse.
func TestFilesFlagsWorse(t *testing.T) {
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl"), filepath.Join(dir, "c.jsonl")
	lats := jitter(100, 0.01, 10)
	for i, v := range lats {
		for _, f := range []struct {
			path  string
			scale float64
		}{{a, 1}, {b, 1.001}, {c, 1.5}} {
			if err := Append(f.path, record("wire_small", v*f.scale, 5e4+float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		// A traced record in the same file must be ignored.
		tr := record("wire_small", 1e6, 1)
		tr.Traced = true
		if err := Append(a, tr); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	worse, err := Files(&out, a, b)
	if err != nil || worse {
		t.Fatalf("A/A: worse=%v err=%v\n%s", worse, err, out.String())
	}
	ra, err := Read(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Read(b)
	if err != nil {
		t.Fatal(err)
	}
	rows := Sets(ra, rb)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want one per recorded metric:\n%s", len(rows), out.String())
	}
	for _, r := range rows {
		if r.Verdict != Same || r.A.N != 10 {
			t.Errorf("A/A %s: verdict %s over %d runs, want same over 10", r.Def.Name, r.Verdict, r.A.N)
		}
	}
	out.Reset()
	worse, err = Files(&out, a, c)
	if err != nil || !worse {
		t.Fatalf("A/B: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if _, err := Files(&out, a, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("missing file: want an error")
	}
}
