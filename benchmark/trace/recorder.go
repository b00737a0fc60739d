// Package trace is the benchmark's tracing: an in-memory span recorder the
// harness wraps around its own calls into each layer, the replay that drives
// a workload's queries through every layer's public entry point in process,
// and the trace file written when a traced run ends. Nothing here adds a
// timer inside the system under test.
package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call: which layer entry point (Name indexes
// Recorder.Names), the span that caused it (-1 at the root), the query it
// belongs to, and its interval in nanoseconds since the recorder's epoch.
type Span struct {
	ID, Parent int32
	Name       int32
	Query      int32
	Start, End int64
}

// Recorder keeps spans in memory until the run ends. It is not safe for
// concurrent use: traced runs drive one query at a time.
type Recorder struct {
	epoch time.Time
	Names []string
	index map[string]int32
	Spans []Span
}

// NewRecorder returns a recorder with room for capacity spans.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{
		epoch: time.Now(),
		index: make(map[string]int32),
		Spans: make([]Span, 0, capacity),
	}
}

func (r *Recorder) name(name string) int32 {
	id, ok := r.index[name]
	if !ok {
		id = int32(len(r.Names))
		r.Names = append(r.Names, name)
		r.index[name] = id
	}
	return id
}

// Add records a span observed between two wall-clock instants and returns
// its ID for children to name as their parent.
func (r *Recorder) Add(name string, parent, query int32, start, end time.Time) int32 {
	return r.AddNS(name, parent, query, int64(start.Sub(r.epoch)), int64(end.Sub(r.epoch)))
}

// AddNS records a span whose interval is already expressed in nanoseconds
// since the epoch — the replay lays its separately measured layers out
// inside their parents this way.
func (r *Recorder) AddNS(name string, parent, query int32, startNS, endNS int64) int32 {
	id := int32(len(r.Spans))
	r.Spans = append(r.Spans, Span{ID: id, Parent: parent, Name: r.name(name), Query: query, Start: startNS, End: endNS})
	return id
}

// File is the on-disk trace: the environment the run was taken in, the span
// name table, and the spans as compact rows
// [id, parent, name, query, start_ns, end_ns].
type File struct {
	Workload string            `json:"workload"`
	Env      map[string]string `json:"env"`
	Note     string            `json:"note"`
	Names    []string          `json:"names"`
	Columns  []string          `json:"columns"`
	Spans    [][6]int64        `json:"spans"`
}

// Write stores the recorder's spans as dir/trace-<workload>.json and returns
// the path.
func (r *Recorder) Write(dir, workload string, env map[string]string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: creating %s: %w", dir, err)
	}
	f := File{
		Workload: workload,
		Env:      env,
		Note: "client.* spans are live wall-clock intervals of the window-1 traced run; " +
			"replay spans (lightning.HandleMessage and below) were each measured in their own in-process pass " +
			"and are laid out inside their parent, so their durations are measured and their start offsets are not",
		Names:   r.Names,
		Columns: []string{"id", "parent", "name", "query", "start_ns", "end_ns"},
		Spans:   make([][6]int64, len(r.Spans)),
	}
	for i, s := range r.Spans {
		f.Spans[i] = [6]int64{int64(s.ID), int64(s.Parent), int64(s.Name), int64(s.Query), s.Start, s.End}
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	out, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(&f); err != nil {
		out.Close()
		return "", fmt.Errorf("trace: writing %s: %w", path, err)
	}
	if err := out.Close(); err != nil {
		return "", fmt.Errorf("trace: closing %s: %w", path, err)
	}
	return path, nil
}
