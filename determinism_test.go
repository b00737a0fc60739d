package lightning

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/nic"
)

// goldenCores1 holds TestDeterministicCores1's twelve response frames, one
// hex line each, recorded on amd64 from the serial execution path
// (serveSerial → Loader.Serve → ExecuteFCBias, a burst per output neuron)
// before it was folded into the batch path. A refactor of the datapath leaves
// the file untouched; only a deliberate change to the numerics, the noise
// model or the training recipe re-records it with -update-golden.
//
// Each line begins with the 42-byte Ethernet/IPv4/UDP header the frames were
// recorded in; the test compares the Lightning frame after it, and
// -update-golden keeps each line's header.
const goldenCores1 = "testdata/deterministic_cores1.hex"

// goldenHeaderHex is the hex length of a golden line's Ethernet/IPv4/UDP
// header.
const goldenHeaderHex = 2 * 42

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenCores1+" from this run")

// TestDeterministicCores1 pins the reproducibility invariant: with a fixed
// Config.Seed and Cores=1, an end-to-end
// inference run — analog noise model, ADC phase and DRAM jitter included —
// is bit-identical across fresh NICs. Every stochastic element must
// therefore draw from a seed derived from Config.Seed through an injected
// source; one stray global-rand draw or wall-clock read anywhere in the
// datapath makes these frames diverge.
//
// On amd64 the frames are also compared byte for byte against goldenCores1,
// so the noisy rng stream is pinned across commits, not just across runs.
// Other architectures may fuse the analog chain's multiply-adds and keep the
// run-to-run check only.
func TestDeterministicCores1(t *testing.T) {
	q, test := trainedModel(t)
	const queries = 12
	run := func() [][]byte {
		// Noise deliberately ON: determinism must hold for the calibrated
		// noisy model, not just the noiseless bypass.
		n, err := New(Config{Lanes: 2, Seed: 7, Cores: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterModel(4, "anomaly", q); err != nil {
			t.Fatal(err)
		}
		outs := make([][]byte, 0, queries)
		for i := 0; i < queries; i++ {
			payload := make([]byte, len(test.Examples[i].X))
			for j, c := range test.Examples[i].X {
				payload[j] = byte(c)
			}
			resp, err := n.HandleMessage(&Message{RequestID: uint32(i), ModelID: 4, Payload: payload})
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			out, err := nic.AppendResponseFrame(nil, resp)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
		return outs
	}
	first := run()
	second := run()
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Errorf("query %d: response frames differ between identical fixed-seed runs\nfirst:  %x\nsecond: %x",
				i, first[i], second[i])
		}
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	raw, err := os.ReadFile(goldenCores1)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	if len(want) != len(first) {
		t.Fatalf("%s holds %d frames, run produced %d", goldenCores1, len(want), len(first))
	}
	if *updateGolden {
		var b strings.Builder
		for i, f := range first {
			b.WriteString(want[i][:goldenHeaderHex])
			b.WriteString(hex.EncodeToString(f))
			b.WriteByte('\n')
		}
		if err := os.WriteFile(goldenCores1, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for i := range first {
		if got := hex.EncodeToString(first[i]); got != want[i][goldenHeaderHex:] {
			t.Errorf("query %d: response frame differs from %s\ngot:  %s\nwant: %s", i, goldenCores1, got, want[i][goldenHeaderHex:])
		}
	}
}
