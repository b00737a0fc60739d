package sim

import (
	"time"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/model"
)

// This file models the testbed-scale latency comparison of Fig 15: the
// Lightning prototype (two wavelengths at 4.055 GHz) against Nvidia Triton
// servers with P4 and A100 GPUs, serving the three §6.3 models. The GPU-side
// constants stand in for the paper's Triton measurements (DESIGN.md §2):
// a fixed serving-stack datapath cost (NIC → kernel → framework → PCIe) plus
// a per-layer kernel-launch cost.

// Prototype compute parameters.
const (
	// PrototypeLanes is the testbed's wavelength count.
	PrototypeLanes = 2
	// PrototypeRateHz is the per-lane analog compute rate: the converters'
	// sample rate, the repo's one statement of the prototype clock.
	PrototypeRateHz = converter.SampleRateHz
)

// Triton-stack constants for the GPU baselines.
const (
	// tritonDatapathP4/A100 is the serving-stack overhead per request.
	tritonDatapathP4   = 300 * time.Microsecond
	tritonDatapathA100 = 200 * time.Microsecond
	// kernelLaunch is the per-layer GPU kernel dispatch cost.
	kernelLaunch = 6 * time.Microsecond
	// GPU sustained MAC rates for tiny-batch inference: small models
	// cannot fill the device, so the effective rate is a fraction of
	// peak.
	p4MACRate   = 2560 * 1.114e9 * 0.2
	a100MACRate = 6912 * 1.41e9 * 0.2
)

// Breakdown splits one platform's end-to-end latency as Fig 15 does.
type Breakdown struct {
	Platform string
	Datapath time.Duration // Fig 15c
	Compute  time.Duration // Fig 15b
}

// EndToEnd is Fig 15a's metric.
func (b Breakdown) EndToEnd() time.Duration { return b.Datapath + b.Compute }

// PrototypeLatency returns the Lightning prototype's latency breakdown for
// a model: per-layer count-action/converter overhead (193 ns/layer) plus
// photonic compute at 2 lanes × 4.055 GHz, plus the non-linear unit cycles.
func PrototypeLatency(m *model.Model) Breakdown {
	datapath := time.Duration(m.SequentialLayers()) * LightningLayerLatency
	computeSecs := float64(m.TotalMACs()) / (PrototypeLanes * PrototypeRateHz)
	return Breakdown{
		Platform: "Lightning",
		Datapath: datapath,
		Compute:  time.Duration(computeSecs * 1e9),
	}
}

// TritonLatency returns a GPU Triton server's breakdown for a model.
func TritonLatency(platform string, m *model.Model) Breakdown {
	var stack time.Duration
	var rate float64
	switch platform {
	case "P4":
		stack, rate = tritonDatapathP4, p4MACRate
	default:
		stack, rate = tritonDatapathA100, a100MACRate
	}
	layers := time.Duration(m.SequentialLayers()) * kernelLaunch
	computeSecs := float64(m.TotalMACs()) / rate
	return Breakdown{
		Platform: platform,
		Datapath: stack,
		Compute:  layers + time.Duration(computeSecs*1e9),
	}
}

// Fig15Row is one model's three-platform comparison.
type Fig15Row struct {
	Model     *model.Model
	Lightning Breakdown
	P4        Breakdown
	A100      Breakdown
}

// SpeedupP4 and SpeedupA100 are the headline ratios of §6.3.
func (r Fig15Row) SpeedupP4() float64 {
	return float64(r.P4.EndToEnd()) / float64(r.Lightning.EndToEnd())
}

// SpeedupA100 is the A100 end-to-end ratio.
func (r Fig15Row) SpeedupA100() float64 {
	return float64(r.A100.EndToEnd()) / float64(r.Lightning.EndToEnd())
}

// Fig15 computes the comparison for the three prototype models.
func Fig15() []Fig15Row {
	var out []Fig15Row
	for _, m := range model.PrototypeModels() {
		out = append(out, Fig15Row{
			Model:     m,
			Lightning: PrototypeLatency(m),
			P4:        TritonLatency("P4", m),
			A100:      TritonLatency("A100", m),
		})
	}
	return out
}
