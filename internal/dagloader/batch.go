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
// The results, and the Raw and Probs vectors they point at, are the
// loader's until its next ServeBatch or Serve call, which may overwrite
// them; a caller that keeps a verdict past that copies it (Serve does).
// The inputs are only read, and only until ServeBatch returns. A hidden
// layer's output is copied out of engine storage into one of two
// activation buffers the loader keeps, used alternately, so no layer reads
// the storage it writes; in steady state a served batch allocates nothing.
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
	// One model lookup for the batch; every input is checked against it.
	mc, err := ld.Store.validate(id, len(inputs[0]))
	if err != nil {
		return nil, batchStats, err
	}
	for _, input := range inputs[1:] {
		if err := mc.checkWidth(len(input)); err != nil {
			return nil, batchStats, err
		}
	}
	results := ld.batch.results(len(inputs))
	acts := inputs
	for l, lc := range mc.Layers {
		ld.Reconfigurations++

		// Registration always stores both keys, so a failed load is a
		// faulted read; serving on without the blob would be a silently
		// wrong answer.
		blob, ok := ld.DRAM.Load(lc.WeightsKey)
		if !ok {
			return nil, batchStats, errMissing("weights", lc.WeightsKey)
		}
		if ld.view, err = DecodeWeights(blob, lc.Out, lc.In); err != nil {
			return nil, batchStats, err
		}
		biasBlob, ok := ld.DRAM.Load(lc.BiasKey)
		if !ok {
			return nil, batchStats, errMissing("bias", lc.BiasKey)
		}
		// A short bias blob would leave the engine skipping the bias on the
		// rows past its end: a wrong answer, not an error.
		if len(biasBlob) != 2*lc.Out {
			return nil, batchStats, errBiasLength(lc.BiasKey, len(biasBlob), 2*lc.Out)
		}
		ld.bias = decodeBiasInto(ld.bias, biasBlob)

		// ld.weights is the view's one interface value, made with the
		// loader: the layer passes it without boxing a copy of the view.
		out := ld.Engine.ExecuteFCBiasBatch(ld.weights, ld.bias, acts, lc.Activation, lc.Shift)
		ld.view = fixed.Packed{} // no idle loader pins a blob a model update freed
		batchStats.Add(out.Stats)
		if lc.Activation == datapath.ActSoftmax {
			// Compile gives the softmax to the layer marked Final and to no
			// other, so this is where results fire, and the engine has
			// already produced the probabilities.
			for qi, fc := range out.PerQuery {
				results[qi] = Result{Class: datapath.Argmax(fc.Raw), Probs: fc.Probs, Raw: fc.Raw}
			}
			return results, batchStats, nil
		}
		acts = ld.batch.carry(l&1, out.PerQuery)
	}
	// No layer was marked final: this model is an intermediate partition of
	// a pipeline-split network (cluster scale-out). Each query's output is
	// the last layer's requantized activations, returned in Probs so they
	// ride the existing response payload to the next hop; no class or softmax
	// exists yet at this stage.
	for qi := range results {
		results[qi] = Result{Class: -1, Probs: acts[qi]}
	}
	return results, batchStats, nil
}

// errMissing is ServeBatch's faulted-read error, built off the hot path.
func errMissing(what, key string) error {
	return fmt.Errorf("dagloader: %s %q missing from DRAM", what, key)
}

// errBiasLength is ServeBatch's short-bias error, built off the hot path.
func errBiasLength(key string, got, want int) error {
	return fmt.Errorf("dagloader: bias %q is %d bytes, want %d", key, got, want)
}

// batchStore is the storage a Loader serves batches from: the results it
// returns and the two activation buffers hidden layers alternate between,
// grown to the widest batch and layer served and then reused.
type batchStore struct {
	res []Result
	// act[p] holds one hidden layer's requantized outputs, a query's
	// vector after another, and next[p] the per-query views of them that
	// the following layer takes as its inputs.
	act  [2][]fixed.Code
	next [2][][]fixed.Code
}

// results returns q zeroed result slots.
func (b *batchStore) results(q int) []Result {
	if cap(b.res) < q {
		b.growResults(q)
	}
	res := b.res[:q]
	clear(res)
	return res
}

// growResults is results' cold path.
func (b *batchStore) growResults(q int) { b.res = make([]Result, q) }

// carry copies one hidden layer's outputs into activation buffer p and
// returns the next layer's inputs, views of that buffer. The engine
// overwrites its outputs at its next layer, so the next layer must not read
// them in place.
func (b *batchStore) carry(p int, outs []datapath.FCResult) [][]fixed.Code {
	q := len(outs)
	width := len(outs[0].Quantized)
	if cap(b.act[p]) < q*width || cap(b.next[p]) < q {
		b.growActs(p, q, width)
	}
	next := b.next[p][:q]
	for qi, fc := range outs {
		lo, hi := qi*width, (qi+1)*width
		v := b.act[p][lo:hi:hi]
		copy(v, fc.Quantized)
		next[qi] = v
	}
	return next
}

// growActs is carry's cold path: it sizes activation buffer p for q
// queries of width codes.
func (b *batchStore) growActs(p, q, width int) {
	if cap(b.act[p]) < q*width {
		b.act[p] = make([]fixed.Code, q*width)
	}
	if cap(b.next[p]) < q {
		b.next[p] = make([][]fixed.Code, q)
	}
}
