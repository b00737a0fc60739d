package exp

import (
	"bytes"
	"io"
	"testing"
)

func TestAblationSignHalvesDualRailSteps(t *testing.T) {
	split, dual, err := RunAblationSign()
	if err != nil {
		t.Fatal(err)
	}
	if split != 128 || dual != 256 {
		t.Errorf("analog steps sign-split/dual-rail = %d/%d, want 128/256", split, dual)
	}
}

func TestAblationWavelengthsStepsAreCeilOfLength(t *testing.T) {
	rows, err := RunAblationWavelengths()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want N ∈ {1, 2, 4, 8}", len(rows))
	}
	for _, r := range rows {
		if want := uint64((512 + r.Wavelengths - 1) / r.Wavelengths); r.Steps != want {
			t.Errorf("N=%d: %d steps, want ⌈512/N⌉ = %d", r.Wavelengths, r.Steps, want)
		}
	}
}

func TestAblationPreambleTradesOverheadForMisses(t *testing.T) {
	rows := RunAblationPreamble(2000, 7)
	wantOverhead := []int{32, 64, 160}
	if len(rows) != len(wantOverhead) {
		t.Fatalf("%d rows, want %d", len(rows), len(wantOverhead))
	}
	for i, r := range rows {
		if r.OverheadSamples != wantOverhead[i] {
			t.Errorf("P=%d: overhead %d samples, want %d", r.Repetitions, r.OverheadSamples, wantOverhead[i])
		}
		if i > 0 && r.MissRate > rows[i-1].MissRate {
			t.Errorf("miss rate rose from %.4f at P=%d to %.4f at P=%d",
				rows[i-1].MissRate, rows[i-1].Repetitions, r.MissRate, r.Repetitions)
		}
	}
}

func TestAblationBackpressureStallsFallWithDepth(t *testing.T) {
	rows, err := RunAblationBackpressure(200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].StallFrac > rows[i-1].StallFrac {
			t.Errorf("stall fraction rose from %.6f at depth %d to %.6f at depth %d",
				rows[i-1].StallFrac, rows[i-1].Depth, rows[i].StallFrac, rows[i].Depth)
		}
	}
}

// TestAblationsAreDeterministic holds the -exp contract: two runs of an
// ablation print the same bytes.
func TestAblationsAreDeterministic(t *testing.T) {
	for _, id := range []string{"ablation-preamble", "ablation-sign", "ablation-wavelengths", "ablation-backpressure"} {
		var a, b bytes.Buffer
		if err := Run(id, &a); err != nil {
			t.Fatal(err)
		}
		if err := Run(id, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s differs between runs:\n%s\n---\n%s", id, a.String(), b.String())
		}
	}
}

// TestAllSkipsOnlyHeavyRuns: every ID Run accepts is listed by IDs (what
// lightning-bench -list prints), and All runs each of them except fig16full.
func TestAllSkipsOnlyHeavyRuns(t *testing.T) {
	saved := Registry
	defer func() { Registry = saved }()
	ran := map[string]bool{}
	Registry = map[string]func(io.Writer) error{}
	for id := range saved {
		Registry[id] = func(io.Writer) error { ran[id] = true; return nil }
	}
	if _, ok := Registry["fig16full"]; !ok {
		t.Fatal("fig16full is not in IDs(), so -list omits it")
	}
	if err := All(io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		if ran[id] == (id == "fig16full") {
			t.Errorf("All ran %s: %v", id, ran[id])
		}
	}
}
