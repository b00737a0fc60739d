// Package dagloader implements Lightning's DAG configuration loader (§4
// step 2, §5.4): it compiles a DNN's computation DAG into one LayerConfig
// per layer, stores the model's quantized parameters in off-chip DRAM, and —
// when an inference packet arrives — reconfigures the datapath layer by
// layer and drives the photonic-electronic pipeline to completion without
// control-plane involvement.
package dagloader

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"github.com/lightning-smartnic/lightning/internal/datapath"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/mem"
	"github.com/lightning-smartnic/lightning/internal/nn"
)

// LayerConfig is one layer's compiled configuration: everything the loader
// retargets the datapath with at the layer boundary (geometry, non-linearity,
// requantization shift) and where the layer's parameters sit in DRAM.
type LayerConfig struct {
	WeightsKey string
	BiasKey    string
	Activation datapath.Activation
	Shift      uint
	In, Out    int
}

// ModelConfig is a fully compiled model.
type ModelConfig struct {
	ID     uint16
	Name   string
	Layers []LayerConfig
}

// Compile translates a quantized network into one LayerConfig per layer. The
// paper example: "the DAG configuration module loads the appropriate
// count-action values for performing inference on the first layer of this
// model and writes these parameters to the control registers". The layer
// marked Final, and no other, gets the softmax: ServeBatch ends the pass and
// generates results there.
func Compile(id uint16, name string, q *nn.QuantizedNetwork) *ModelConfig {
	mc := &ModelConfig{ID: id, Name: name}
	for l, ql := range q.Layers {
		out, in := ql.Weights.Dims()
		act := datapath.ActReLU
		if ql.Final {
			act = datapath.ActSoftmax
		}
		mc.Layers = append(mc.Layers, LayerConfig{
			// Keys carry the wire ID, not just the name: two models may
			// share a human-readable name but must never share weights.
			WeightsKey: fmt.Sprintf("model%d-%s/layer%d/weights", id, name, l),
			BiasKey:    fmt.Sprintf("model%d-%s/layer%d/bias", id, name, l),
			Activation: act,
			Shift:      ql.Shift,
			In:         in,
			Out:        out,
		})
	}
	return mc
}

// EncodeWeights serializes a layer's sign/magnitude weight matrix for DRAM:
// all magnitude bytes row-major, followed by a packed sign bitmap.
func EncodeWeights(w fixed.Matrix) []byte { return w.Pack() }

// DecodeWeights checks a DRAM blob against the layer geometry and returns
// the engine's operand over it: a zero-copy view, not a decoded matrix. The
// view aliases blob, so it lives no longer than the DRAM entry does — for a
// served layer, the span of the store's read lock.
func DecodeWeights(blob []byte, rows, cols int) (fixed.Packed, error) {
	return fixed.View(blob, rows, cols)
}

// EncodeBias serializes a bias vector as little-endian int16 words.
func EncodeBias(b []fixed.Acc) []byte {
	out := make([]byte, 2*len(b))
	for i, v := range b {
		binary.LittleEndian.PutUint16(out[2*i:], uint16(v))
	}
	return out
}

// DecodeBias reverses EncodeBias.
func DecodeBias(blob []byte) []fixed.Acc {
	return decodeBiasInto(make([]fixed.Acc, len(blob)/2), blob)
}

// decodeBiasInto is DecodeBias into dst's storage, grown only when it is
// short.
func decodeBiasInto(dst []fixed.Acc, blob []byte) []fixed.Acc {
	n := len(blob) / 2
	if cap(dst) < n {
		dst = make([]fixed.Acc, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = fixed.Acc(binary.LittleEndian.Uint16(blob[2*i:]))
	}
	return dst
}

// Store is the shared model registry and DRAM weight store. In the sharded
// NIC every photonic core shard serves out of one Store, exactly as the §7
// chip's replicated cores all read the same off-chip memory. All methods
// are safe for concurrent use: registrations and updates take the write
// lock, and every in-flight query holds the read lock, so a PCIe model
// update (§6.1) waits for in-flight queries against the old version to
// drain before the swap — and can never yank weight blobs out from under a
// running layer.
type Store struct {
	DRAM *mem.DRAM

	mu     sync.RWMutex
	models map[uint16]*ModelConfig
}

// NewStore wraps a DRAM in an empty model registry.
func NewStore(dram *mem.DRAM) *Store {
	return &Store{DRAM: dram, models: make(map[uint16]*ModelConfig)}
}

// Register stores a compiled model's parameters in DRAM and makes it
// servable under its wire ID. A model that does not fit leaves DRAM and the
// registry as they were.
func (s *Store) Register(mc *ModelConfig, q *nn.QuantizedNetwork) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.models[mc.ID]; dup {
		return fmt.Errorf("dagloader: model id %d already registered", mc.ID)
	}
	return s.replaceLocked(nil, mc, q)
}

// Update atomically replaces a registered model's parameters with a freshly
// compiled configuration. It blocks until in-flight queries against the old
// version complete (they hold the read lock), then swaps. A replacement that
// does not fit in DRAM once the old version's blobs are freed is refused
// before anything is freed, so the old version keeps serving.
func (s *Store) Update(mc *ModelConfig, q *nn.QuantizedNetwork) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.models[mc.ID]
	if !ok {
		return fmt.Errorf("dagloader: model id %d not registered", mc.ID)
	}
	if err := s.replaceLocked(old, mc, q); err != nil {
		return fmt.Errorf("dagloader: updating model %d: %w", mc.ID, err)
	}
	return nil
}

// replaceLocked frees old's blobs (old may be nil), stores mc's and
// registers mc. It first checks that mc fits in what DRAM holds once old is
// freed, so a refused model leaves DRAM and the registry untouched. Caller
// holds s.mu.
func (s *Store) replaceLocked(old, mc *ModelConfig, q *nn.QuantizedNetwork) error {
	free := s.DRAM.Spec.CapacityBytes - s.DRAM.Used()
	if old != nil {
		free += footprint(old)
	}
	if need := footprint(mc); need > free {
		return fmt.Errorf("dagloader: model %d needs %d bytes of %s, %d free", mc.ID, need, s.DRAM.Spec.Name, free)
	}
	if old != nil {
		for _, lc := range old.Layers {
			s.DRAM.Delete(lc.WeightsKey)
			s.DRAM.Delete(lc.BiasKey)
		}
		delete(s.models, old.ID)
	}
	for l, lc := range mc.Layers {
		if err := s.DRAM.Store(lc.WeightsKey, EncodeWeights(q.Layers[l].Weights)); err != nil {
			return fmt.Errorf("storing %s: %w", lc.WeightsKey, err)
		}
		if err := s.DRAM.Store(lc.BiasKey, EncodeBias(q.Layers[l].Bias)); err != nil {
			return fmt.Errorf("storing %s: %w", lc.BiasKey, err)
		}
	}
	s.models[mc.ID] = mc
	return nil
}

// footprint is the DRAM a model's blobs take: each layer's packed weights
// and its 16-bit bias words.
func footprint(mc *ModelConfig) int64 {
	var n int64
	for _, lc := range mc.Layers {
		w, _ := fixed.PackedLen(lc.Out, lc.In) // in range: the weights exist
		n += int64(w + 2*lc.Out)
	}
	return n
}

// Model returns a registered model's configuration.
func (s *Store) Model(id uint16) (*ModelConfig, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mc, ok := s.models[id]
	return mc, ok
}

// validate is the per-query precondition check every entry shares: the model
// is registered and the input fills its first layer. Caller holds s.mu.
func (s *Store) validate(id uint16, inputLen int) (*ModelConfig, error) {
	mc, ok := s.models[id]
	if !ok {
		return nil, fmt.Errorf("dagloader: unknown model id %d", id)
	}
	return mc, mc.checkWidth(inputLen)
}

// checkWidth reports an input of inputLen codes that does not fill mc's
// first layer.
func (mc *ModelConfig) checkWidth(inputLen int) error {
	if inputLen != mc.Layers[0].In {
		return fmt.Errorf("dagloader: input length %d != model %s first-layer width %d",
			inputLen, mc.Name, mc.Layers[0].In)
	}
	return nil
}

// Validate reports why a query of inputLen codes for model id cannot be
// served — unknown model or wrong input width — or nil. It touches no
// datapath state, so a NIC uses it to reject client mistakes before they
// reach (and count against) any shard.
func (s *Store) Validate(id uint16, inputLen int) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, err := s.validate(id, inputLen)
	return err
}

// Loader owns one datapath shard's photonic engine, serving models out of a
// (possibly shared) Store. A Loader is single-threaded — one shard is one
// hardware pipeline — so the caller serializes ServeBatch calls per Loader;
// sharing the Store across Loaders is what makes multi-shard serving safe.
type Loader struct {
	Store  *Store
	Engine *datapath.Engine

	// DRAM aliases Store.DRAM for convenience.
	DRAM *mem.DRAM

	// Reconfigurations counts layer boundaries served: each retargets the
	// datapath to the next LayerConfig, and the datapath never stops.
	// Per-shard; read it under the same serialization that guards
	// ServeBatch.
	Reconfigurations uint64

	// bias holds the layer being served's decoded bias, and view the
	// layer's weight view over its DRAM blob (cleared when the layer
	// returns), with weights the one interface value wrapping &view. batch holds what ServeBatch returns and the
	// activations its hidden layers hand on.
	bias    []fixed.Acc
	view    fixed.Packed
	weights fixed.Weights
	batch   batchStore
}

// NewLoader wires a loader to an engine and a private store over the DRAM.
func NewLoader(engine *datapath.Engine, dram *mem.DRAM) *Loader {
	return NewLoaderWithStore(engine, NewStore(dram))
}

// NewLoaderWithStore wires a loader shard to an engine and a shared store.
func NewLoaderWithStore(engine *datapath.Engine, store *Store) *Loader {
	ld := &Loader{
		Store:  store,
		Engine: engine,
		DRAM:   store.DRAM,
	}
	ld.weights = &ld.view
	return ld
}

// RegisterModel compiles a quantized network, stores its parameters in DRAM,
// and makes it servable under the model ID (on every loader sharing the
// store).
func (ld *Loader) RegisterModel(id uint16, name string, q *nn.QuantizedNetwork) error {
	mc := Compile(id, name, q)
	return ld.Store.Register(mc, q)
}

// UpdateModel replaces a registered model's parameters and layer configs in
// place — the §6.1 PCIe path: "Lightning uses the PCIe interface to interact
// with the local host for ... updating DNN model parameters". The new
// network may have a different architecture; in-flight queries for the old
// version complete before the swap.
func (ld *Loader) UpdateModel(id uint16, q *nn.QuantizedNetwork) error {
	old, ok := ld.Store.Model(id)
	if !ok {
		return fmt.Errorf("dagloader: model id %d not registered", id)
	}
	mc := Compile(id, old.Name, q)
	return ld.Store.Update(mc, q)
}

// Model returns a registered model's configuration.
func (ld *Loader) Model(id uint16) (*ModelConfig, bool) { return ld.Store.Model(id) }

// Result is one served inference.
type Result struct {
	Class int
	// Probs holds the final softmax probability codes.
	Probs []fixed.Code
	// Raw holds the final-layer logits.
	Raw   []fixed.Acc
	Stats datapath.LayerStats
}

// Serve runs one inference query through the reconfigurable datapath:
// ServeBatch for a batch of one, with the pass's cycle accounting attached to
// the single Result. Input length must match the model's first layer. The
// Result and its vectors are copies, the caller's to keep across calls.
func (ld *Loader) Serve(id uint16, input []fixed.Code) (*Result, error) {
	inputs := [1][]fixed.Code{input}
	results, stats, err := ld.ServeBatch(id, inputs[:])
	if err != nil {
		return nil, err
	}
	res := results[0]
	res.Probs, res.Raw = slices.Clone(res.Probs), slices.Clone(res.Raw)
	res.Stats = stats
	return &res, nil
}
