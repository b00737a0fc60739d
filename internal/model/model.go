// Package model represents DNN computation DAGs the way Lightning's DAG
// configuration loader consumes them: an ordered set of layers, each
// decomposable into vector dot-product tasks plus digital non-linearities,
// with the geometry needed to derive count-action targets, MAC counts, and
// memory traffic.
//
// The zoo covers every model the paper evaluates: the three prototype
// models of §6.3 (security anomaly detection, IoT traffic classification,
// LeNet-300-100), the four emulation models of §7 (AlexNet, VGG11/16/19),
// and the seven large models of §9 / Table 6 (AlexNet, ResNet-18, VGG16,
// VGG19, BERT-Large, GPT-2 XL, DLRM).
package model

import (
	"fmt"
)

// Kind enumerates layer types the datapath templates support (§4: "a series
// of datapath templates (e.g., fully-connected layers, convolution layers,
// attention layers, recurrent layers, adder tree modules, non-linear
// computation like ReLU and softmax, etc.)").
type Kind int

// Layer kinds.
const (
	FullyConnected Kind = iota
	Conv2D
	MaxPool
	Attention
	Embedding
	Interaction // DLRM feature interaction
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case FullyConnected:
		return "fc"
	case Conv2D:
		return "conv"
	case MaxPool:
		return "pool"
	case Attention:
		return "attention"
	case Embedding:
		return "embedding"
	case Interaction:
		return "interaction"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Act enumerates the digital non-linearity attached to a layer.
type Act int

// Activations.
const (
	None Act = iota
	ReLU
	Softmax
	GELU
)

// String names the activation.
func (a Act) String() string {
	switch a {
	case ReLU:
		return "relu"
	case Softmax:
		return "softmax"
	case GELU:
		return "gelu"
	default:
		return "none"
	}
}

// Layer is one node of a model's computation DAG.
type Layer struct {
	Name string
	Kind Kind
	Act  Act

	// FullyConnected: In × Out.
	In, Out int

	// Conv2D: input H×W×InC, OutC kernels of K×K, stride S.
	H, W, InC, OutC, K, S int

	// Attention: model dim D, heads, sequence length Seq.
	D, Heads, Seq int

	// Embedding: Rows × Dim table, Lookups gathers per query.
	Rows, Dim, Lookups int

	// Tokens multiplies the layer's per-token MAC count for layers applied
	// position-wise over a sequence (transformer FFN projections). Zero or
	// one means a single application.
	Tokens int
}

// MACs returns the multiply-accumulate count for one inference through the
// layer.
func (l Layer) MACs() int64 {
	tokens := int64(1)
	if l.Tokens > 1 {
		tokens = int64(l.Tokens)
	}
	switch l.Kind {
	case FullyConnected:
		return tokens * int64(l.In) * int64(l.Out)
	case Conv2D:
		oh, ow := l.outHW()
		return int64(oh) * int64(ow) * int64(l.OutC) * int64(l.InC) * int64(l.K) * int64(l.K)
	case Attention:
		// QKV projections + output projection (4·D²·Seq) plus the two
		// Seq×Seq attention matmuls (2·Seq²·D).
		d, s := int64(l.D), int64(l.Seq)
		return 4*d*d*s + 2*s*s*d
	case Embedding, MaxPool, Interaction:
		return 0 // lookups, comparisons and concatenations: no MACs
	default:
		return 0
	}
}

// Params returns the layer's parameter count.
func (l Layer) Params() int64 {
	switch l.Kind {
	case FullyConnected:
		return int64(l.In)*int64(l.Out) + int64(l.Out) // weights + bias
	case Conv2D:
		return int64(l.OutC)*int64(l.InC)*int64(l.K)*int64(l.K) + int64(l.OutC)
	case Attention:
		d := int64(l.D)
		return 4 * d * d // QKVO projection matrices
	case Embedding:
		return int64(l.Rows) * int64(l.Dim)
	default:
		return 0
	}
}

func (l Layer) outHW() (int, int) {
	if l.S == 0 {
		return 0, 0
	}
	return (l.H-l.K)/l.S + 1, (l.W-l.K)/l.S + 1
}

// Domain classifies a model's workload for reports (Table 6's Type column).
type Domain string

// Domains.
const (
	Vision         Domain = "vision"
	Language       Domain = "language"
	Recommendation Domain = "recommendation"
	NetworkTraffic Domain = "network-traffic"
)

// Model is a DNN's computation DAG plus the metadata the simulator and DAG
// loader need.
type Model struct {
	Name   string
	Domain Domain
	Layers []Layer

	// QueryBytes is the inference request payload size (Table 6's
	// "Inference query size").
	QueryBytes int

	// DatapathLayers is the sequential layer count charged datapath
	// latency in §9: parallel branches count once (Table 6 footnote:
	// "when multiple layers can be processed in parallel, we apply the
	// single-layer datapath latency only once" — applicable to BERT,
	// GPT-2, and DLRM). Zero means len(Layers).
	DatapathLayers int

	// SizeMBOverride pins the reported model size where the paper's
	// number includes structures our layer list abstracts away (e.g.
	// DLRM's full embedding tables). Zero means derive from Params().
	SizeMBOverride float64
}

// TotalMACs sums MAC counts across layers.
func (m *Model) TotalMACs() int64 {
	var s int64
	for _, l := range m.Layers {
		s += l.MACs()
	}
	return s
}

// TotalParams sums parameter counts across layers.
func (m *Model) TotalParams() int64 {
	var s int64
	for _, l := range m.Layers {
		s += l.Params()
	}
	return s
}

// SizeMB returns the stored model size in megabytes (fp32 parameters unless
// overridden).
func (m *Model) SizeMB() float64 {
	if m.SizeMBOverride > 0 {
		return m.SizeMBOverride
	}
	return float64(m.TotalParams()) * 4 / 1e6
}

// SequentialLayers returns the layer count charged per-layer datapath
// latency.
func (m *Model) SequentialLayers() int {
	if m.DatapathLayers > 0 {
		return m.DatapathLayers
	}
	return len(m.Layers)
}

// String summarizes the model.
func (m *Model) String() string {
	return fmt.Sprintf("%s: %d layers, %.4g M params, %.4g M MACs/inference",
		m.Name, len(m.Layers), float64(m.TotalParams())/1e6, float64(m.TotalMACs())/1e6)
}
