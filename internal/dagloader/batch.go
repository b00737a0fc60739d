package dagloader

import (
	"fmt"

	"github.com/lightning-smartnic/lightning/internal/datapath"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// ServeBatch runs a batch of same-model queries through the reconfigurable
// datapath as matrix-matrix passes: per layer it retargets the datapath to
// the layer's LayerConfig ONCE, streams the layer's weights from DRAM ONCE,
// and executes every query's activations through the photonic pipeline in a
// single shared burst — all without control-plane involvement. The
// per-layer reconfiguration, DRAM weight stream, decode, and fixed datapath
// overhead amortize across the batch; a lone query (Serve) is the batch of
// one and pays each of them itself.
//
// Results come back in input order, one per query, with per-query verdicts
// (Class, Probs, Raw) computed independently — batching shares analog
// framing, never numerics. The per-Result Stats fields are zero: cycle
// accounting for a batched pass is inherently shared, so it is returned
// once as the whole-batch LayerStats. On an ideal (noiseless) channel the
// per-query outputs are bit-identical to serving each query alone.
//
// ServeBatch holds the store's read lock for the whole batch, so a
// concurrent model update waits until in-flight batches drain and a query
// never sees a half-swapped model. Errors are whole-batch: callers validate
// per-query preconditions (Store.Validate) before enqueueing, so a failure
// here means the batch itself cannot run (model dropped, a faulted DRAM
// read), not that one query was bad.
func (ld *Loader) ServeBatch(id uint16, inputs [][]fixed.Code) ([]Result, datapath.LayerStats, error) {
	var batchStats datapath.LayerStats
	if len(inputs) == 0 {
		return nil, batchStats, nil
	}
	ld.Store.mu.RLock()
	defer ld.Store.mu.RUnlock()
	var mc *ModelConfig
	for _, input := range inputs {
		var err error
		if mc, err = ld.Store.validate(id, len(input)); err != nil {
			return nil, batchStats, err
		}
	}
	results := make([]Result, len(inputs))
	acts := inputs
	// next carries every later layer's inputs: the engine is done reading
	// acts when a layer returns, so one slice serves them all.
	var next [][]fixed.Code
	for _, lc := range mc.Layers {
		ld.Reconfigurations++

		// Registration always stores both keys, so a failed load is a
		// faulted read; serving on without the blob would be a silently
		// wrong answer.
		blob, ok := ld.DRAM.Load(lc.WeightsKey)
		if !ok {
			return nil, batchStats, fmt.Errorf("dagloader: weights %q missing from DRAM", lc.WeightsKey)
		}
		weights, err := DecodeWeights(blob, lc.Out, lc.In)
		if err != nil {
			return nil, batchStats, err
		}
		biasBlob, ok := ld.DRAM.Load(lc.BiasKey)
		if !ok {
			return nil, batchStats, fmt.Errorf("dagloader: bias %q missing from DRAM", lc.BiasKey)
		}
		// A short bias blob would leave the engine skipping the bias on the
		// rows past its end: a wrong answer, not an error.
		if len(biasBlob) != 2*lc.Out {
			return nil, batchStats, fmt.Errorf("dagloader: bias %q is %d bytes, want %d", lc.BiasKey, len(biasBlob), 2*lc.Out)
		}
		ld.bias = decodeBiasInto(ld.bias, biasBlob)

		out := ld.Engine.ExecuteFCBiasBatch(weights, ld.bias, acts, lc.Activation, lc.Shift)
		batchStats.Add(out.Stats)
		if lc.Activation == datapath.ActSoftmax {
			// Compile gives the softmax to the layer marked Final and to no
			// other, so this is where results fire, and the engine has
			// already produced the probabilities.
			for qi, fc := range out.PerQuery {
				results[qi].Raw = fc.Raw
				results[qi].Probs = fc.Probs
				results[qi].Class = datapath.Argmax(fc.Raw)
			}
			return results, batchStats, nil
		}
		if next == nil {
			next = make([][]fixed.Code, len(inputs))
		}
		for qi, fc := range out.PerQuery {
			next[qi] = fc.Quantized
		}
		acts = next
	}
	// No layer was marked final: this model is an intermediate partition of
	// a pipeline-split network (cluster scale-out). Each query's output is
	// the last layer's requantized activations, returned in Probs so they
	// ride the existing response payload to the next hop; no class or softmax
	// exists yet at this stage.
	for qi := range results {
		results[qi].Probs = acts[qi]
		results[qi].Class = -1
	}
	return results, batchStats, nil
}
