package model

// The model zoo. Geometries follow the original architecture papers; the
// DatapathLayers counts are pinned to reproduce Table 6's Lightning datapath
// latencies (193 ns × layers).

// fc builds a fully-connected layer.
func fc(name string, in, out int, act Act) Layer {
	return Layer{Name: name, Kind: FullyConnected, In: in, Out: out, Act: act}
}

// conv builds a convolution layer (same-padding geometries are expressed by
// pre-padded H/W).
func conv(name string, h, w, inC, outC, k, s int, act Act) Layer {
	return Layer{Name: name, Kind: Conv2D, H: h, W: w, InC: inC, OutC: outC, K: k, S: s, Act: act}
}

// attn builds one transformer block's attention+FFN compute, expressed as an
// attention layer followed by the two FFN matmuls.
func attnBlock(name string, d, heads, seq, ffn int) []Layer {
	f1 := fc(name+"/ffn1", d, ffn, GELU)
	f1.Tokens = seq
	f2 := fc(name+"/ffn2", ffn, d, None)
	f2.Tokens = seq
	return []Layer{
		{Name: name + "/attn", Kind: Attention, D: d, Heads: heads, Seq: seq, Act: None},
		f1,
		f2,
	}
}

// SecurityModel is the network-anomaly-detection DNN of §6.3: the N3IC
// architecture with 8-bit weights, 1,568 parameters (32→32→16→2, no biases
// in the paper's count).
func SecurityModel() *Model {
	return &Model{
		Name:   "security",
		Domain: NetworkTraffic,
		Layers: []Layer{
			fc("fc1", 32, 32, ReLU),
			fc("fc2", 32, 16, ReLU),
			fc("fc3", 16, 2, Softmax),
		},
		QueryBytes: 32,
	}
}

// TrafficClassModel is the IoT traffic-classification DNN of §6.3: 1,696
// parameters (32→32→16→10).
func TrafficClassModel() *Model {
	return &Model{
		Name:   "traffic-classification",
		Domain: NetworkTraffic,
		Layers: []Layer{
			fc("fc1", 32, 32, ReLU),
			fc("fc2", 32, 16, ReLU),
			fc("fc3", 16, 10, Softmax),
		},
		QueryBytes: 32,
	}
}

// LeNet300100 is the MNIST classifier of §6.3: 784→300→100→10, ≈266 K
// parameters.
func LeNet300100() *Model {
	return &Model{
		Name:   "lenet-300-100",
		Domain: Vision,
		Layers: []Layer{
			fc("fc1", 784, 300, ReLU),
			fc("fc2", 300, 100, ReLU),
			fc("fc3", 100, 10, Softmax),
		},
		QueryBytes: 784,
	}
}

// AlexNet (Krizhevsky et al.): 5 conv + 3 fc layers, ≈61 M params, 233 MB
// fp32 (Table 6), 8 sequential layers.
func AlexNet() *Model {
	return &Model{
		Name:   "alexnet",
		Domain: Vision,
		Layers: []Layer{
			conv("conv1", 227, 227, 3, 96, 11, 4, ReLU),
			conv("conv2", 31, 31, 96, 256, 5, 1, ReLU), // 27+4 pad
			conv("conv3", 15, 15, 256, 384, 3, 1, ReLU),
			conv("conv4", 15, 15, 384, 384, 3, 1, ReLU),
			conv("conv5", 15, 15, 384, 256, 3, 1, ReLU),
			fc("fc6", 9216, 4096, ReLU),
			fc("fc7", 4096, 4096, ReLU),
			fc("fc8", 4096, 1000, Softmax),
		},
		QueryBytes:     150 * 1024,
		DatapathLayers: 8,
	}
}

// vggConvStack builds the shared VGG trunk layout for a configuration
// (counts of 3×3 convs per stage).
func vggConvStack(stages [5]int) []Layer {
	chans := [5]int{64, 128, 256, 512, 512}
	sizes := [5]int{226, 114, 58, 30, 16} // pre-padded inputs per stage
	var ls []Layer
	inC := 3
	for st := 0; st < 5; st++ {
		for i := 0; i < stages[st]; i++ {
			ls = append(ls, conv(
				stageName(st, i), sizes[st], sizes[st], inC, chans[st], 3, 1, ReLU))
			inC = chans[st]
		}
	}
	return ls
}

func stageName(stage, idx int) string {
	return "conv" + string(rune('1'+stage)) + "_" + string(rune('1'+idx))
}

func vggHead() []Layer {
	return []Layer{
		fc("fc6", 25088, 4096, ReLU),
		fc("fc7", 4096, 4096, ReLU),
		fc("fc8", 4096, 1000, Softmax),
	}
}

// VGG16 (configuration D): 13 conv + 3 fc, 528 MB fp32 (Table 6).
func VGG16() *Model {
	ls := append(vggConvStack([5]int{2, 2, 3, 3, 3}), vggHead()...)
	return &Model{Name: "vgg16", Domain: Vision, Layers: ls, QueryBytes: 150 * 1024, DatapathLayers: 16}
}

// VGG19 (configuration E): 16 conv + 3 fc, 548 MB fp32 (Table 6).
func VGG19() *Model {
	ls := append(vggConvStack([5]int{2, 2, 4, 4, 4}), vggHead()...)
	return &Model{Name: "vgg19", Domain: Vision, Layers: ls, QueryBytes: 150 * 1024, DatapathLayers: 19}
}

// ResNet18: 17 conv + 1 fc, ≈11.7 M params / 45 MB (Table 6). Residual adds
// are digital and free of MACs. Table 6 charges 21 sequential datapath steps
// (4.053 µs / 193 ns).
func ResNet18() *Model {
	var ls []Layer
	ls = append(ls, conv("conv1", 230, 230, 3, 64, 7, 2, ReLU))
	stage := func(name string, h, inC, outC, firstStride int) {
		s := firstStride
		c := inC
		for i := 0; i < 4; i++ {
			hh := h + 2 // 3×3 same-pad
			if i == 0 && s != 1 {
				hh = h*s + 1
			}
			ls = append(ls, conv(name+"_"+string(rune('a'+i)), hh, hh, c, outC, 3, s, ReLU))
			c = outC
			s = 1
		}
	}
	stage("conv2", 56, 64, 64, 1)
	stage("conv3", 28, 64, 128, 2)
	stage("conv4", 14, 128, 256, 2)
	stage("conv5", 7, 256, 512, 2)
	ls = append(ls, fc("fc", 512, 1000, Softmax))
	return &Model{Name: "resnet18", Domain: Vision, Layers: ls, QueryBytes: 150 * 1024, DatapathLayers: 21}
}

// BERTLarge: 24 transformer blocks, d=1024, 16 heads, FFN 4096, ≈340 M
// params / 1380 MB. Query 5.12 KB (Table 6) ≈ 128 tokens. Table 6 charges
// 169 sequential datapath steps (32.617 µs / 193 ns): attention sub-layers
// within a block partially parallelize.
func BERTLarge() *Model {
	var ls []Layer
	ls = append(ls, Layer{Name: "embed", Kind: Embedding, Rows: 30522, Dim: 1024, Lookups: 128})
	for b := 0; b < 24; b++ {
		ls = append(ls, attnBlock(blockName("block", b), 1024, 16, 128, 4096)...)
	}
	return &Model{Name: "bert-large", Domain: Language, Layers: ls,
		QueryBytes: 5120, DatapathLayers: 169}
}

// GPT2XL: 48 blocks, d=1600, 25 heads, FFN 6400, ≈1.5 B params / 6263 MB.
// Query 10.24 KB ≈ 256 tokens; 338 sequential datapath steps.
func GPT2XL() *Model {
	var ls []Layer
	ls = append(ls, Layer{Name: "embed", Kind: Embedding, Rows: 50257, Dim: 1600, Lookups: 256})
	for b := 0; b < 48; b++ {
		ls = append(ls, attnBlock(blockName("block", b), 1600, 25, 256, 6400)...)
	}
	return &Model{Name: "gpt2-xl", Domain: Language, Layers: ls,
		QueryBytes: 10240, DatapathLayers: 338}
}

// DLRM: embedding tables (the 12.4 GB bulk, Table 6's size override),
// bottom MLP 13→512→256→64, feature interaction, top MLP →512→256→1.
// 8 sequential datapath steps (1.544 µs / 193 ns): table lookups
// parallelize.
func DLRM() *Model {
	return &Model{
		Name:   "dlrm",
		Domain: Recommendation,
		Layers: []Layer{
			{Name: "embed", Kind: Embedding, Rows: 10_000_000, Dim: 64, Lookups: 26},
			fc("bot1", 13, 512, ReLU),
			fc("bot2", 512, 256, ReLU),
			fc("bot3", 256, 64, ReLU),
			{Name: "interact", Kind: Interaction, In: 27 * 27 / 2},
			fc("top1", 479, 512, ReLU),
			fc("top2", 512, 256, ReLU),
			fc("top3", 256, 1, None),
		},
		QueryBytes:     5120,
		DatapathLayers: 8,
		SizeMBOverride: 12400,
	}
}

func blockName(prefix string, i int) string {
	return prefix + "-" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// SimulationModels returns the seven large DNNs of §9 in Table 6 order.
func SimulationModels() []*Model {
	return []*Model{AlexNet(), ResNet18(), VGG16(), VGG19(), BERTLarge(), GPT2XL(), DLRM()}
}

// PrototypeModels returns the three models served on the testbed (§6.3).
func PrototypeModels() []*Model {
	return []*Model{SecurityModel(), TrafficClassModel(), LeNet300100()}
}
