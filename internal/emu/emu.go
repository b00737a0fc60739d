package emu

import (
	"math"
	"math/rand/v2"
	"sort"

	"github.com/lightning-smartnic/lightning/internal/stats"
)

// Scheme selects the computation precision/noise regime of §7's emulator.
type Scheme int

// Schemes of Fig 19.
const (
	// SchemeFP32 is the 32-bit digital reference.
	SchemeFP32 Scheme = iota
	// SchemeInt8 is an 8-bit digital accelerator: per-tensor symmetric
	// quantization of weights and activations, noiseless.
	SchemeInt8
	// SchemePhotonic8 is Lightning: 8-bit quantization plus the
	// calibrated per-MAC Gaussian analog noise.
	SchemePhotonic8
)

// String names the scheme as Fig 19 labels it.
func (s Scheme) String() string {
	switch s {
	case SchemeInt8:
		return "Digital-8bit"
	case SchemePhotonic8:
		return "Lightning"
	default:
		return "Digital-32bit"
	}
}

// Emulator evaluates networks under a scheme.
type Emulator struct {
	// Noise is the analog noise model in code units (Fig 18's fit by
	// default).
	Noise stats.Gaussian
	rng   *rand.Rand
}

// New returns an emulator with the prototype's raw fitted noise (Fig 18:
// mean 2.32, σ 1.65).
func New(seed uint64) *Emulator {
	return &Emulator{
		Noise: stats.Gaussian{Mean: 2.32, Sigma: 1.65},
		rng:   rand.New(rand.NewPCG(seed, 0xe8)),
	}
}

// NewCalibrated returns an emulator whose noise DC offset has been removed,
// as the detector-side calibration of Appendix A does for the deployed
// datapath: the measured I_min → r_min mapping absorbs the noise mean, so
// only the σ=1.65 stochastic component reaches inference. Deep networks are
// exquisitely sensitive to a per-MAC DC bias (it compounds through every
// ReLU layer), which is why the inference experiments use this model.
func NewCalibrated(seed uint64) *Emulator {
	e := New(seed)
	e.Noise.Mean = 0
	return e
}

// evalCtx carries the per-run scheme state into ops.
type evalCtx struct {
	scheme Scheme
	noise  stats.Gaussian
	rng    *rand.Rand
}

// quantize returns the scheme's view of a tensor: fp32 passes through;
// 8-bit schemes snap every value to the 256-level symmetric grid. The
// returned scale is the tensor's max magnitude (one LSB = scale/255).
func (c *evalCtx) quantize(xs []float64) ([]float64, float64) {
	var scale float64
	for _, x := range xs {
		if a := math.Abs(x); a > scale {
			scale = a
		}
	}
	if c.scheme == SchemeFP32 || scale == 0 {
		return xs, scale
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x/scale*255) / 255 * scale
	}
	return out, scale
}

// dotNoise returns the analog noise added to one dot product of k MACs.
// Per-MAC noise is Gaussian(µ, σ) in code units on the product scale
// (ws·as/255 real units per code); k independent MACs sum to
// Gaussian(k·µ, σ·√k).
func (c *evalCtx) dotNoise(k int, wScale, aScale float64) float64 {
	if c.scheme != SchemePhotonic8 || k == 0 {
		return 0
	}
	lsb := wScale * aScale / 255
	mean := float64(k) * c.noise.Mean * lsb
	sigma := c.noise.Sigma * math.Sqrt(float64(k)) * lsb
	return mean + sigma*c.rng.NormFloat64()
}

// Run evaluates the net on an input under the scheme and returns the output
// logits.
func (e *Emulator) Run(net *Net, in *Tensor, scheme Scheme) []float64 {
	ctx := &evalCtx{scheme: scheme, noise: e.Noise, rng: e.rng}
	t := in
	for _, op := range net.Ops {
		t = op.Apply(t, ctx)
	}
	out := make([]float64, t.Len())
	copy(out, t.Data)
	return out
}

// TopK returns the indices of the k largest logits, descending.
func TopK(logits []float64, k int) []int {
	idx := make([]int, len(logits))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return logits[idx[a]] > logits[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// AgreementResult is one scheme's accuracy proxy: how often its top-1 (and
// top-5) predictions agree with the fp32 reference.
type AgreementResult struct {
	Scheme     Scheme
	Top1, Top5 float64
}

// Evaluate runs n random inputs through the net under all three schemes and
// reports top-1/top-5 agreement with the fp32 reference — the Fig 19
// comparison under the synthetic-weights substitution.
func (e *Emulator) Evaluate(net *Net, n int, seed uint64) []AgreementResult {
	rng := rand.New(rand.NewPCG(seed, 0x1e19))
	schemes := []Scheme{SchemeFP32, SchemeInt8, SchemePhotonic8}
	agree1 := make([]int, len(schemes))
	agree5 := make([]int, len(schemes))
	for i := 0; i < n; i++ {
		in := NewTensor(net.InH, net.InW, net.InC)
		for j := range in.Data {
			in.Data[j] = rng.Float64() // image-like non-negative inputs
		}
		ref := e.Run(net, in, SchemeFP32)
		refTop1 := TopK(ref, 1)[0]
		for si, s := range schemes {
			logits := ref
			if s != SchemeFP32 {
				logits = e.Run(net, in, s)
			}
			top5 := TopK(logits, 5)
			if top5[0] == refTop1 {
				agree1[si]++
			}
			for _, t := range top5 {
				if t == refTop1 {
					agree5[si]++
					break
				}
			}
		}
	}
	out := make([]AgreementResult, len(schemes))
	for si, s := range schemes {
		out[si] = AgreementResult{
			Scheme: s,
			Top1:   float64(agree1[si]) / float64(n),
			Top5:   float64(agree5[si]) / float64(n),
		}
	}
	return out
}
