// Package workload defines the benchmark's four workloads: for each, the
// model served, the server entry point and client shape that drive it, the
// seeded query pool, and the noiseless oracle answers every response is
// checked against.
package workload

import (
	"fmt"
	"math/rand/v2"
	"time"

	lightning "github.com/lightning-smartnic/lightning"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// ModelID is the wire model ID every workload serves under.
const ModelID = 1

// PoolSize is the number of distinct queries a workload cycles through.
const PoolSize = 64

// VisionWidth is the fragmented workload's input size: 224×224×3 bytes,
// Table 6's 150 KB class.
const VisionWidth = 224 * 224 * 3

// Spec is the fixed shape of one workload. Nothing in it depends on the
// seed.
type Spec struct {
	Name string
	// Conns is the number of client connections, Window the outstanding
	// queries each keeps in flight. All workloads are closed loop.
	Conns, Window int
	// Workers selects the server entry point: 0 serves with ServeUDP, a
	// positive count with ServeUDPWorkers.
	Workers int
	// Batch is the NIC's cross-query batching configuration (zero: off).
	Batch lightning.BatchConfig
	// TracePerSecond sizes the traced window-1 run: it serves
	// TracePerSecond × seconds queries.
	TracePerSecond int
}

// Specs lists the workloads in report order. BENCHMARK.json and README.md
// say why each exists.
var Specs = []Spec{
	{
		// 64-byte query in one datagram, window 8: per-query fixed cost of
		// netbatch, the nic codec and the root serve loop.
		Name:   "wire_small",
		Conns:  1,
		Window: 8, TracePerSecond: 500,
	},
	{
		// The anomaly MLP on the serial path, window 2: per-dot datapath
		// overhead.
		Name:   "mlp_serial",
		Conns:  1,
		Window: 2, TracePerSecond: 200,
	},
	{
		// The same MLP through 16 workers and batches of 8: the matrix
		// twins, admission and the batcher. Two connections of window 8 keep
		// 16 queries in flight, so batches fill by count.
		Name:    "mlp_batched",
		Conns:   2,
		Window:  8,
		Workers: 16,
		Batch:   lightning.BatchConfig{MaxBatch: 8, MaxDelay: time.Millisecond},

		TracePerSecond: 100,
	},
	{
		// One 150 KB query as a 109-fragment train, window 1: long-vector
		// photonic dots, per-query weight decode and copies, reassembly.
		Name:   "vision_frag",
		Conns:  1,
		Window: 1, TracePerSecond: 20,
	},
}

// Lookup returns the spec with the given name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Workload is a spec made concrete for one seed.
type Workload struct {
	Spec
	Seed  uint64
	Model *lightning.TrainedModel
	// Pool holds the distinct query payloads; Oracle[i] is the class the
	// noiseless digital reference assigns Pool[i].
	Pool   [][]byte
	Oracle []int
	// Fragments is the number of datagrams one query travels as.
	Fragments int
}

// NICConfig is the configuration every live and twin NIC is built with: the
// prototype default (2 lanes, seed 1, noise on, 1 core) plus the workload's
// batching.
func (w *Workload) NICConfig() lightning.Config {
	cfg := lightning.DefaultConfig()
	cfg.Batch = w.Batch
	return cfg
}

// mlp builds the anomaly MLP exactly as cmd/lightning-serve ships it at
// -seed 7 -epochs 15.
func mlp() (*lightning.TrainedModel, error) {
	m, _, _, err := lightning.Train(lightning.AnomalyDataset(2000, 7), lightning.TrainOptions{
		Hidden: []int{32, 16}, Epochs: 15, Seed: 7,
	})
	return m, err
}

// Build makes a workload's model, query pool and oracle answers from the
// seed. The same seed always yields byte-identical pools and answers; the
// model itself does not depend on the seed.
func Build(name string, seed uint64) (*Workload, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
	w := &Workload{Spec: spec, Seed: seed}
	switch name {
	case "wire_small":
		w.Model = lightning.SyntheticHalvesModel(64)
		w.Pool = halvesPool(64, seed)
	case "vision_frag":
		w.Model = lightning.SyntheticHalvesModel(VisionWidth)
		w.Pool = halvesPool(VisionWidth, seed)
	default:
		m, err := mlp()
		if err != nil {
			return nil, fmt.Errorf("workload: training %s model: %w", name, err)
		}
		w.Model = m
		w.Pool = flowPool(seed)
	}
	w.Oracle = make([]int, len(w.Pool))
	for i, q := range w.Pool {
		w.Oracle[i], _ = w.Model.Infer(Codes(q))
	}
	msgs, err := nic.Fragment(1, ModelID, w.Pool[0], nic.MaxFragPayload)
	if err != nil {
		return nil, fmt.Errorf("workload: fragmenting %s query: %w", name, err)
	}
	w.Fragments = len(msgs)
	return w, nil
}

// Codes views a query payload as datapath input codes.
func Codes(q []byte) []fixed.Code {
	out := make([]fixed.Code, len(q))
	for i, b := range q {
		out[i] = fixed.Code(b)
	}
	return out
}

// dimEntries bounds how many codes of a halves query's dim half are non-zero.
// The datapath's 16-bit accumulator saturates at 32767, so a half whose
// codes sum past that reads the same as any brighter half; a dense 75 KB dim
// half would turn every answer into a tie. 256 codes below 40 sum to at most
// 10 240.
const dimEntries = 256

// halvesPool draws queries for the halves classifier. One half, chosen at
// random, is bright: every byte non-zero in [128, 240), so the photonic step
// count of its dot product is the same for every query. The other half is
// dim: dimEntries bytes (all of them, on a narrow model) in [8, 40), the
// rest zero, so the noiseless answer is never a near tie and never decided
// by saturation.
func halvesPool(width int, seed uint64) [][]byte {
	rng := rand.New(rand.NewPCG(seed, uint64(width)))
	half := width / 2
	pool := make([][]byte, PoolSize)
	for i := range pool {
		q := make([]byte, width)
		bright, dim := q[:half], q[half:]
		if rng.IntN(2) == 1 {
			bright, dim = dim, bright
		}
		for j := range bright {
			bright[j] = byte(128 + rng.IntN(112))
		}
		for _, j := range rng.Perm(len(dim))[:min(len(dim), dimEntries)] {
			dim[j] = byte(8 + rng.IntN(32))
		}
		pool[i] = q
	}
	return pool
}

// flowPool draws queries for the anomaly MLP from the same two-cluster flow
// distribution the model was trained on (dataset seed 7 fixes the cluster
// centres; the pool is a seeded sample of its examples beyond the training
// prefix, so no pool query was trained on).
func flowPool(seed uint64) [][]byte {
	const held = 4096
	set := lightning.AnomalyDataset(2000+held, 7)
	rng := rand.New(rand.NewPCG(seed, 0xf10f))
	pool := make([][]byte, PoolSize)
	for i, p := range rng.Perm(held)[:PoolSize] {
		x := set.Examples[2000+p].X
		q := make([]byte, len(x))
		for j, c := range x {
			q[j] = byte(c)
		}
		pool[i] = q
	}
	return pool
}
