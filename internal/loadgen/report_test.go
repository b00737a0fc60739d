package loadgen

import (
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"testing"
)

// TestReportJSONKeys pins the load report's schema: every field name a
// consumer of lightning-loadgen -out reads, at every nesting level. A rename
// here is a schema change, not a refactor.
func TestReportJSONKeys(t *testing.T) {
	r := NewReport("poisson", 7, 2)
	r.Workers = 4
	r.Points = []Point{{
		Models: []ModelLoad{{Model: 4}},
		Server: &ServerCounters{AdmissionDrops: map[uint16]uint64{4: 1}},
	}}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	point := doc["points"].([]any)[0].(map[string]any)
	latency := []string{"max_ms", "p50_ms", "p90_ms", "p99_ms", "samples"}
	for _, c := range []struct {
		name string
		obj  any
		want []string
	}{
		{"report", doc, []string{"conns", "dist", "go_version", "goarch", "goos", "num_cpu", "points", "schema_version", "seed", "workers"}},
		{"point", point, []string{"achieved_rps", "duration_s", "goodput_rps", "latency", "models", "offered_rps", "server", "shed_frac"}},
		{"point latency", point["latency"], latency},
		{"model", point["models"].([]any)[0], []string{"errors", "goodput_rps", "latency", "model", "responses", "sent", "timeouts"}},
		{"model latency", point["models"].([]any)[0].(map[string]any)["latency"], latency},
		{"server", point["server"], []string{"admission_drops", "decode_errors", "queue_full", "served", "shed", "write_errors"}},
	} {
		var got []string
		for k := range c.obj.(map[string]any) {
			got = append(got, k)
		}
		sort.Strings(got)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s keys = %v, want %v", c.name, got, c.want)
		}
	}
}
