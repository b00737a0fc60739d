package exp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/sim"
)

func TestFig16Output(t *testing.T) {
	if testing.Short() {
		t.Skip("full datapath inference in -short mode")
	}
	var buf bytes.Buffer
	if err := Fig16(&buf, 20, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 16", "photonic top-1", "8-bit digital", "confusion matrix"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig16 output missing %q", want)
		}
	}
	// The confusion matrix prints one row per digit class.
	for _, row := range []string{"  0: ", "  9: "} {
		if !strings.Contains(out, row) {
			t.Errorf("fig16 output missing matrix row %q", row)
		}
	}
}

func TestFig18Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig18(&buf, 300, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 18", "fitted Gaussian", "2.32", "1.65"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig18 output missing %q", want)
		}
	}
	// The ASCII histogram renders at least one bar.
	if !strings.Contains(out, "#") {
		t.Error("fig18 output has no histogram bars")
	}
}

func TestFig21and22Output(t *testing.T) {
	cfg := sim.DefaultCompareConfig()
	cfg.Requests = 200
	cfg.Traces = 2
	for _, c := range []struct {
		speedup bool
		want    []string
	}{
		{true, []string{"Fig 21", "speedup", "× faster"}},
		{false, []string{"Fig 22", "energy-sav", "× less energy"}},
	} {
		var buf bytes.Buffer
		if err := fig2122(&buf, cfg, c.speedup); err != nil {
			t.Fatal(err)
		}
		for _, want := range c.want {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("fig2122(speedup %v) output missing %q", c.speedup, want)
			}
		}
	}
}

// TestAllStopsAtFirstError exercises the All driver without paying for a
// full experiment sweep: a registered experiment that fails must abort the
// run with its ID wrapped in the error.
func TestAllStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	// Sorts before every real experiment ID, so All fails immediately.
	const id = "aaa-exploding-test-experiment"
	register(id, func(io.Writer) error { return boom })
	defer delete(Registry, id)
	err := All(io.Discard)
	if !errors.Is(err, boom) {
		t.Fatalf("All error = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), id) {
		t.Errorf("All error %q does not name the failing experiment", err)
	}
}
