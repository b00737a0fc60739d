package exp

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig4", "fig8", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20", "fig21", "fig22", "fig23",
		"table1", "table2", "table3", "table4", "table5", "table6", "cost",
		"sweep", "tails", "fig16full",
		"ablation-preamble", "ablation-sign", "ablation-wavelengths", "ablation-backpressure",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(IDs()), len(want))
	}
}

func TestRunUnknown(t *testing.T) {
	if err := Run("nope", io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFig14Accuracies(t *testing.T) {
	res, err := RunFig14(500, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 99.451% / 99.465% / 99.25%. Shape: all ≈99%.
	for name, acc := range map[string]float64{
		"multiplication": res.MultiplicationAcc,
		"accumulation":   res.AccumulationAcc,
		"mac":            res.MACAcc,
	} {
		if acc < 98.5 || acc > 99.95 {
			t.Errorf("%s accuracy = %.3f%%, want ≈99%%", name, acc)
		}
	}
}

func TestFig16AccuracyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full datapath inference in -short mode")
	}
	res, err := RunFig16(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Shape: photonic ≈ digital, both well above chance.
	if res.PhotonicTop1 < 0.85 {
		t.Errorf("photonic top-1 = %.2f, want > 0.85", res.PhotonicTop1)
	}
	if res.Digital8Top1 < res.PhotonicTop1-0.05 {
		t.Errorf("digital (%.2f) should be ≥ photonic (%.2f) within noise",
			res.Digital8Top1, res.PhotonicTop1)
	}
	// Confusion matrix diagonal dominates.
	var diag, total int
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			total += res.Confusion[r][c]
			if r == c {
				diag += res.Confusion[r][c]
			}
		}
	}
	if total != 100 {
		t.Errorf("confusion total = %d", total)
	}
	if float64(diag)/float64(total) != res.PhotonicTop1 {
		t.Error("confusion diagonal inconsistent with accuracy")
	}
}

func TestFig18FitMatchesPrototypeNoise(t *testing.T) {
	res, err := RunFig18(2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit.Mean < 1.5 || res.Fit.Mean > 3.2 {
		t.Errorf("noise mean = %.2f, want ≈2.32", res.Fit.Mean)
	}
	if res.Fit.Sigma < 1.2 || res.Fit.Sigma > 2.2 {
		t.Errorf("noise sigma = %.2f, want ≈1.65", res.Fit.Sigma)
	}
}

func TestTextualExperimentsProduceOutput(t *testing.T) {
	// Each fast experiment must run and emit its header.
	ids := []string{"fig4", "fig8", "fig15", "fig17", "fig20", "fig23",
		"table1", "table2", "table3", "table4", "table5", "table6",
		"cost", "sweep", "tails",
		"ablation-preamble", "ablation-sign", "ablation-wavelengths", "ablation-backpressure"}
	for _, id := range ids {
		var buf bytes.Buffer
		if err := Run(id, &buf); err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if !strings.Contains(buf.String(), "===") {
			t.Errorf("%s produced no header", id)
		}
		if buf.Len() < 100 {
			t.Errorf("%s output suspiciously short (%d bytes)", id, buf.Len())
		}
	}
}

func TestFig14OutputMentionsPaperNumbers(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig14(&buf, 200, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"99.451", "99.465", "99.25", "185", "51"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("fig14 output missing %q", want)
		}
	}
}

func TestFig19Output(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation in -short mode")
	}
	var buf bytes.Buffer
	if err := Fig19(&buf, 4, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"alexnet-proxy", "vgg19-proxy", "Digital-8bit"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("fig19 output missing %q", want)
		}
	}
}
