// Package nn is a small pure-Go neural-network library used to train the
// prototype's classifier models (the paper trains LeNet-300-100 "using
// PyTorch for 500 epochs on a GPU server with 8-bit quantized parameters";
// we train the stand-in models here, then quantize them for the photonic
// datapath).
//
// It implements dense feed-forward networks with ReLU hidden layers and a
// softmax cross-entropy output, trained by mini-batch SGD with momentum.
package nn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/lightning-smartnic/lightning/internal/dataset"
)

// Network is a dense feed-forward classifier.
type Network struct {
	// Sizes holds layer widths, input first (e.g. 784, 300, 100, 10).
	Sizes []int
	// W[l][j][i] is the weight from input i to neuron j of layer l.
	W [][][]float64
	// B[l][j] is neuron j's bias in layer l.
	B [][]float64
}

// New builds a network with He-initialized weights.
func New(seed uint64, sizes ...int) *Network {
	if len(sizes) < 2 {
		panic("nn: network needs at least input and output sizes")
	}
	rng := rand.New(rand.NewPCG(seed, 0x22))
	n := &Network{Sizes: sizes}
	for l := 1; l < len(sizes); l++ {
		in, out := sizes[l-1], sizes[l]
		std := math.Sqrt(2.0 / float64(in))
		w := make([][]float64, out)
		for j := range w {
			w[j] = make([]float64, in)
			for i := range w[j] {
				w[j][i] = rng.NormFloat64() * std
			}
		}
		n.W = append(n.W, w)
		n.B = append(n.B, make([]float64, out))
	}
	return n
}

// Forward runs inference, returning per-layer pre-activations and
// activations (activations[0] is the input).
func (n *Network) forward(x []float64) (zs, as [][]float64) {
	as = append(as, x)
	for l := range n.W {
		z := make([]float64, len(n.W[l]))
		for j := range n.W[l] {
			s := n.B[l][j]
			row := n.W[l][j]
			for i, xi := range as[l] {
				s += row[i] * xi
			}
			z[j] = s
		}
		zs = append(zs, z)
		var a []float64
		if l == len(n.W)-1 {
			a = softmaxF(z)
		} else {
			a = reluF(z)
		}
		as = append(as, a)
	}
	return zs, as
}

// Predict returns class probabilities for input x.
func (n *Network) Predict(x []float64) []float64 {
	_, as := n.forward(x)
	return as[len(as)-1]
}

// Classify returns the argmax class for input x.
func (n *Network) Classify(x []float64) int {
	return argmaxF(n.Predict(x))
}

// TrainConfig controls SGD.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	Seed      uint64
	// Verbose, when set, receives per-epoch progress lines.
	Verbose func(epoch int, loss float64)
}

// DefaultTrainConfig returns sensible defaults for the stand-in tasks.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, BatchSize: 32, LR: 0.05, Momentum: 0.9, Seed: 1}
}

// Train fits the network to the dataset with mini-batch SGD and returns the
// final epoch's mean cross-entropy loss.
func (n *Network) Train(set *dataset.Set, cfg TrainConfig) float64 {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7e4a))
	// Momentum buffers.
	vw := make([][][]float64, len(n.W))
	vb := make([][]float64, len(n.B))
	for l := range n.W {
		vw[l] = make([][]float64, len(n.W[l]))
		for j := range vw[l] {
			vw[l][j] = make([]float64, len(n.W[l][j]))
		}
		vb[l] = make([]float64, len(n.B[l]))
	}

	idx := make([]int, len(set.Examples))
	for i := range idx {
		idx[i] = i
	}
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			epochLoss += n.sgdStep(set, batch, cfg, vw, vb)
		}
		lastLoss = epochLoss / float64(len(idx))
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, lastLoss)
		}
	}
	return lastLoss
}

// sgdStep accumulates gradients over a batch and applies one momentum
// update, returning the batch's summed loss.
func (n *Network) sgdStep(set *dataset.Set, batch []int, cfg TrainConfig, vw [][][]float64, vb [][]float64) float64 {
	gw := make([][][]float64, len(n.W))
	gb := make([][]float64, len(n.B))
	for l := range n.W {
		gw[l] = make([][]float64, len(n.W[l]))
		for j := range gw[l] {
			gw[l][j] = make([]float64, len(n.W[l][j]))
		}
		gb[l] = make([]float64, len(n.B[l]))
	}
	var loss float64
	for _, i := range batch {
		x := set.Floats(i)
		label := set.Examples[i].Label
		zs, as := n.forward(x)
		out := as[len(as)-1]
		loss += -math.Log(math.Max(out[label], 1e-12))

		// Output delta: softmax + cross-entropy → p - y.
		delta := make([]float64, len(out))
		copy(delta, out)
		delta[label] -= 1

		for l := len(n.W) - 1; l >= 0; l-- {
			a := as[l]
			for j, dj := range delta {
				gb[l][j] += dj
				row := gw[l][j]
				for i2, ai := range a {
					row[i2] += dj * ai
				}
			}
			if l == 0 {
				break
			}
			prev := make([]float64, len(a))
			for i2 := range prev {
				var s float64
				for j, dj := range delta {
					s += n.W[l][j][i2] * dj
				}
				if zs[l-1][i2] <= 0 { // ReLU gradient
					s = 0
				}
				prev[i2] = s
			}
			delta = prev
		}
	}
	scale := cfg.LR / float64(len(batch))
	for l := range n.W {
		for j := range n.W[l] {
			for i := range n.W[l][j] {
				vw[l][j][i] = cfg.Momentum*vw[l][j][i] - scale*gw[l][j][i]
				n.W[l][j][i] += vw[l][j][i]
			}
			vb[l][j] = cfg.Momentum*vb[l][j] - scale*gb[l][j]
			n.B[l][j] += vb[l][j]
		}
	}
	return loss
}

// Accuracy evaluates top-1 accuracy over a dataset.
func (n *Network) Accuracy(set *dataset.Set) float64 {
	if len(set.Examples) == 0 {
		return 0
	}
	correct := 0
	for i := range set.Examples {
		if n.Classify(set.Floats(i)) == set.Examples[i].Label {
			correct++
		}
	}
	return float64(correct) / float64(len(set.Examples))
}

// String summarizes the architecture.
func (n *Network) String() string {
	return fmt.Sprintf("nn%v", n.Sizes)
}

func reluF(z []float64) []float64 {
	out := make([]float64, len(z))
	for i, v := range z {
		if v > 0 {
			out[i] = v
		}
	}
	return out
}

func softmaxF(z []float64) []float64 {
	max := z[0]
	for _, v := range z[1:] {
		if v > max {
			max = v
		}
	}
	out := make([]float64, len(z))
	var sum float64
	for i, v := range z {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func argmaxF(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
