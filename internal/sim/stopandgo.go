package sim

import (
	"math/rand/v2"
	"time"

	"github.com/lightning-smartnic/lightning/internal/model"
)

// This file models the stop-and-go datapath of prior photonic computing
// demonstrations (§3, Fig 3, Appendix D): a control script loads vectors
// from memory, pushes them to an Arbitrary Waveform Generator, waits for the
// photonic cores, pulls the result from a digitizer, and post-processes —
// once per layer, with the photonic cores idle between steps. It generates
// the "state of the art" curve of Fig 4.

// StopAndGoConfig holds the lab-setup constants. Defaults reflect a typical
// AWG/digitizer bench driven by a Python process: tens-to-hundreds of
// milliseconds of software and instrument-arming time per layer dwarf the
// nanoseconds of analog compute — five orders of magnitude above
// Lightning's datapath.
type StopAndGoConfig struct {
	// SoftwarePrep is the control-script time to assemble one layer's
	// vectors (memory reads, format conversion).
	SoftwarePrep time.Duration
	// TransferBps is the host↔instrument link rate (e.g. 1 GbE / USB3).
	TransferBps float64
	// AWGArm is the waveform-generator arm/trigger time per layer.
	AWGArm time.Duration
	// DigitizerRead is the capture + readback time per layer.
	DigitizerRead time.Duration
	// PostProcess is the per-layer Python post-processing (ReLU etc.).
	PostProcess time.Duration
	// Jitter scales multiplicative log-uniform noise on software steps
	// (OS scheduling, GC, USB retries).
	Jitter float64
	// AnalogRateHz is the photonic compute rate once armed.
	AnalogRateHz float64
}

// DefaultStopAndGo returns bench constants calibrated so an end-to-end
// LeNet-class inference lands in the seconds range, as Fig 4 shows.
func DefaultStopAndGo() StopAndGoConfig {
	return StopAndGoConfig{
		SoftwarePrep:  120 * time.Millisecond,
		TransferBps:   1e9,
		AWGArm:        250 * time.Millisecond,
		DigitizerRead: 180 * time.Millisecond,
		PostProcess:   60 * time.Millisecond,
		Jitter:        0.5,
		AnalogRateHz:  PrototypeRateHz,
	}
}

// InferenceLatency draws one end-to-end stop-and-go inference latency for a
// model: the per-layer instrument round trip repeats for every layer of the
// DAG.
func (c StopAndGoConfig) InferenceLatency(m *model.Model, rng *rand.Rand) time.Duration {
	jitter := func(d time.Duration) time.Duration {
		f := 1 + c.Jitter*rng.Float64()
		return time.Duration(float64(d) * f)
	}
	var total time.Duration
	for _, l := range m.Layers {
		macs := l.MACs()
		if macs == 0 {
			continue
		}
		// Both operand streams cross the host→AWG link as 8-bit samples.
		transferSecs := float64(2*macs) / c.TransferBps * 8 / 8
		analogSecs := float64(macs) / c.AnalogRateHz
		total += jitter(c.SoftwarePrep) +
			time.Duration(transferSecs*1e9) +
			jitter(c.AWGArm) +
			time.Duration(analogSecs*1e9) +
			jitter(c.DigitizerRead) +
			jitter(c.PostProcess)
	}
	return total
}

// Fig4Result holds the two latency samples sets behind Fig 4's CDFs.
type Fig4Result struct {
	StateOfTheArtMS []float64
	LightningMS     []float64
}

// Fig4 serves n inferences of the given model through both pipelines and
// returns latency samples in milliseconds. The Lightning side uses the
// prototype latency model plus small arrival jitter.
func Fig4(m *model.Model, n int, seed uint64) Fig4Result {
	rng := rand.New(rand.NewPCG(seed, 0xf19))
	cfg := DefaultStopAndGo()
	var res Fig4Result
	base := PrototypeLatency(m).EndToEnd()
	for i := 0; i < n; i++ {
		res.StateOfTheArtMS = append(res.StateOfTheArtMS,
			float64(cfg.InferenceLatency(m, rng))/1e6)
		// Lightning jitter: queueing at the parser and preamble phase.
		j := 1 + 0.1*rng.Float64()
		res.LightningMS = append(res.LightningMS, float64(base)*j/1e6)
	}
	return res
}
