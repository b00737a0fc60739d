package loadgen

import (
	"encoding/json"
	"io"
	"runtime"
)

// LatencySummary condenses one latency sample set into the percentiles the
// saturation analysis reads. Milliseconds, because that is the scale a UDP
// inference round trip lives at.
type LatencySummary struct {
	Samples int     `json:"samples"`
	P50Ms   float64 `json:"p50_ms"`
	P90Ms   float64 `json:"p90_ms"`
	P99Ms   float64 `json:"p99_ms"`
	MaxMs   float64 `json:"max_ms"`
}

// ModelLoad is one model's slice of a load point: what the generator offered
// it, what came back, and how fast.
type ModelLoad struct {
	Model      uint16         `json:"model"`
	Sent       uint64         `json:"sent"`
	Responses  uint64         `json:"responses"`
	Errors     uint64         `json:"errors"`
	Timeouts   uint64         `json:"timeouts"`
	GoodputRPS float64        `json:"goodput_rps"`
	Latency    LatencySummary `json:"latency"`
}

// ServerCounters is the server-side view of a load point, read from
// Metrics() when the generator owns the server (-self mode). Client- and
// server-side numbers bracketing the same run is what makes a shed visible
// as a shed rather than a mystery timeout.
type ServerCounters struct {
	Served         uint64            `json:"served"`
	QueueFull      uint64            `json:"queue_full"`
	Shed           uint64            `json:"shed"`
	DecodeErrors   uint64            `json:"decode_errors"`
	WriteErrors    uint64            `json:"write_errors"`
	AdmissionDrops map[uint16]uint64 `json:"admission_drops,omitempty"`
}

// Point is one offered-load level of a saturation sweep.
type Point struct {
	// OfferedRPS is the target arrival rate; AchievedRPS is what the
	// open-loop sender actually put on the wire (they diverge only when the
	// sender itself saturates).
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	// GoodputRPS counts successful responses per second of sending window.
	GoodputRPS float64 `json:"goodput_rps"`
	// ShedFrac is the fraction of offered requests that did not come back as
	// successful responses — admission drops, deadline sheds, server errors
	// and client timeouts all land here.
	ShedFrac  float64         `json:"shed_frac"`
	DurationS float64         `json:"duration_s"`
	Latency   LatencySummary  `json:"latency"`
	Models    []ModelLoad     `json:"models"`
	Server    *ServerCounters `json:"server,omitempty"`
}

// Report is the JSON document lightning-loadgen -out writes: a saturation
// series of Points under one fixed seed, with enough environment stamped in
// to rerun it.
type Report struct {
	SchemaVersion int     `json:"schema_version"`
	GoVersion     string  `json:"go_version"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	NumCPU        int     `json:"num_cpu"`
	Dist          string  `json:"dist"`
	Seed          uint64  `json:"seed"`
	Conns         int     `json:"conns"`
	Workers       int     `json:"workers,omitempty"`
	Points        []Point `json:"points"`
}

// NewReport stamps the runtime environment into an empty report.
func NewReport(dist string, seed uint64, conns int) *Report {
	return &Report{
		SchemaVersion: 1,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Dist:          dist,
		Seed:          seed,
		Conns:         conns,
	}
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
