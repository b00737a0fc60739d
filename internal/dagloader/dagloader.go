// Package dagloader implements Lightning's DAG configuration loader (§4
// step 2, §5.4): it compiles a DNN's computation DAG into per-layer
// count-action register programs, stores the model's quantized parameters in
// off-chip DRAM, and — when an inference packet arrives — reconfigures the
// datapath layer by layer and drives the photonic-electronic pipeline to
// completion without control-plane involvement.
package dagloader

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/lightning-smartnic/lightning/internal/countaction"
	"github.com/lightning-smartnic/lightning/internal/datapath"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/mem"
	"github.com/lightning-smartnic/lightning/internal/nn"
)

// Control-register addresses for the datapath templates (Fig 11's
// centralized control registers). Each layer's Program rewrites these.
const (
	// RegStreamerTarget is the synchronous data streamer's valid-count
	// target (the number of parallel DACs, Listing 1).
	RegStreamerTarget countaction.Addr = iota
	// RegAdderPartials is the cross-cycle adder-subtractor target: the
	// partial count per dot product (Listing 3).
	RegAdderPartials
	// RegNonlinearLen is the non-linear unit's element count per vector.
	RegNonlinearLen
	// RegLayerIn and RegLayerOut describe the layer geometry.
	RegLayerIn
	RegLayerOut
	// RegActivation selects the non-linear function (datapath.Activation).
	RegActivation
	// RegShift is the requantization shift.
	RegShift
	// RegLast marks the final layer (result generation fires after it).
	RegLast

	// NumRegs is the register file size the loader requires.
	NumRegs
)

// Program compilation turns each layer into a register image. The Weights
// key locates the layer's parameters in DRAM.

// LayerConfig pairs a compiled count-action program with its DRAM keys.
type LayerConfig struct {
	Program    countaction.Program
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

// Compile translates a quantized network into per-layer programs. The paper
// example: "the DAG configuration module loads the appropriate count-action
// values for performing inference on the first layer of this model and
// writes these parameters to the control registers".
func Compile(id uint16, name string, q *nn.QuantizedNetwork, numDACs, numWavelengths int) *ModelConfig {
	mc := &ModelConfig{ID: id, Name: name}
	for l, ql := range q.Layers {
		out, in := ql.Weights.Dims()
		act := datapath.ActReLU
		if ql.Final {
			act = datapath.ActSoftmax
		}
		var p countaction.Program
		p.Label = fmt.Sprintf("%s layer %d: fc %dx%d", name, l+1, in, out)
		p.Set(RegStreamerTarget, countaction.Value(numDACs))
		partials := (in + numWavelengths - 1) / numWavelengths
		p.Set(RegAdderPartials, countaction.Value(partials))
		p.Set(RegNonlinearLen, countaction.Value(out))
		p.Set(RegLayerIn, countaction.Value(in))
		p.Set(RegLayerOut, countaction.Value(out))
		p.Set(RegActivation, countaction.Value(act))
		p.Set(RegShift, countaction.Value(ql.Shift))
		last := countaction.Value(0)
		if ql.Final {
			last = 1
		}
		p.Set(RegLast, last)
		mc.Layers = append(mc.Layers, LayerConfig{
			Program: p,
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
	out := make([]fixed.Acc, len(blob)/2)
	for i := range out {
		out[i] = fixed.Acc(binary.LittleEndian.Uint16(blob[2*i:]))
	}
	return out
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
// servable under its wire ID.
func (s *Store) Register(mc *ModelConfig, q *nn.QuantizedNetwork) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registerLocked(mc, q)
}

func (s *Store) registerLocked(mc *ModelConfig, q *nn.QuantizedNetwork) error {
	if _, dup := s.models[mc.ID]; dup {
		return fmt.Errorf("dagloader: model id %d already registered", mc.ID)
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

// Update atomically replaces a registered model's parameters with a freshly
// compiled configuration. It blocks until in-flight queries against the old
// version complete (they hold the read lock), then swaps.
func (s *Store) Update(mc *ModelConfig, q *nn.QuantizedNetwork) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.models[mc.ID]
	if !ok {
		return fmt.Errorf("dagloader: model id %d not registered", mc.ID)
	}
	for _, lc := range old.Layers {
		s.DRAM.Delete(lc.WeightsKey)
		s.DRAM.Delete(lc.BiasKey)
	}
	delete(s.models, mc.ID)
	if err := s.registerLocked(mc, q); err != nil {
		return fmt.Errorf("dagloader: updating model %d: %w", mc.ID, err)
	}
	return nil
}

// Model returns a registered model's configuration.
func (s *Store) Model(id uint16) (*ModelConfig, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mc, ok := s.models[id]
	return mc, ok
}

// Models returns the registered model count.
func (s *Store) Models() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.models)
}

// validate is the per-query precondition check every entry shares: the model
// is registered and the input fills its first layer. Caller holds s.mu.
func (s *Store) validate(id uint16, inputLen int) (*ModelConfig, error) {
	mc, ok := s.models[id]
	if !ok {
		return nil, fmt.Errorf("dagloader: unknown model id %d", id)
	}
	if inputLen != mc.Layers[0].In {
		return nil, fmt.Errorf("dagloader: input length %d != model %s first-layer width %d",
			inputLen, mc.Name, mc.Layers[0].In)
	}
	return mc, nil
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

// Loader owns one datapath shard's control registers and photonic engine,
// serving models out of a (possibly shared) Store. A Loader is single-
// threaded — one shard is one hardware pipeline — so the caller serializes
// ServeBatch calls per Loader; sharing the Store across Loaders is what makes
// multi-shard serving safe.
type Loader struct {
	Regs   *countaction.RegisterFile
	Store  *Store
	Engine *datapath.Engine

	// DRAM aliases Store.DRAM for convenience.
	DRAM *mem.DRAM

	// Reconfigurations counts applied layer programs (each one is a pure
	// register-write burst — the datapath never stops). Per-shard; read it
	// under the same serialization that guards ServeBatch.
	Reconfigurations uint64
}

// NewLoader wires a loader to an engine and a private store over the DRAM.
func NewLoader(engine *datapath.Engine, dram *mem.DRAM) *Loader {
	return NewLoaderWithStore(engine, NewStore(dram))
}

// NewLoaderWithStore wires a loader shard to an engine and a shared store.
func NewLoaderWithStore(engine *datapath.Engine, store *Store) *Loader {
	return &Loader{
		Regs:   countaction.NewRegisterFile(int(NumRegs)),
		Store:  store,
		Engine: engine,
		DRAM:   store.DRAM,
	}
}

// RegisterModel compiles a quantized network for this loader's engine
// geometry, stores its parameters in DRAM, and makes it servable under the
// model ID (on every loader sharing the store).
func (ld *Loader) RegisterModel(id uint16, name string, q *nn.QuantizedNetwork) error {
	mc := Compile(id, name, q, ld.Engine.Core.NumLanes()*2, ld.Engine.Core.NumLanes())
	return ld.Store.Register(mc, q)
}

// UpdateModel replaces a registered model's parameters and programs in
// place — the §6.1 PCIe path: "Lightning uses the PCIe interface to interact
// with the local host for ... updating DNN model parameters". The new
// network may have a different architecture; in-flight queries for the old
// version complete before the swap.
func (ld *Loader) UpdateModel(id uint16, q *nn.QuantizedNetwork) error {
	old, ok := ld.Store.Model(id)
	if !ok {
		return fmt.Errorf("dagloader: model id %d not registered", id)
	}
	mc := Compile(id, old.Name, q, ld.Engine.Core.NumLanes()*2, ld.Engine.Core.NumLanes())
	return ld.Store.Update(mc, q)
}

// Model returns a registered model's configuration.
func (ld *Loader) Model(id uint16) (*ModelConfig, bool) { return ld.Store.Model(id) }

// Models returns the registered model count.
func (ld *Loader) Models() int { return ld.Store.Models() }

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
// the single Result. Input length must match the model's first layer.
func (ld *Loader) Serve(id uint16, input []fixed.Code) (*Result, error) {
	inputs := [1][]fixed.Code{input}
	results, stats, err := ld.ServeBatch(id, inputs[:])
	if err != nil {
		return nil, err
	}
	results[0].Stats = stats
	return &results[0], nil
}
