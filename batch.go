package lightning

import (
	"github.com/lightning-smartnic/lightning/internal/dagloader"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// execBatch is the NIC's one execution path: it runs a batch of same-model
// queries through a shard as one matrix pass and fans per-request verdicts
// back into the items' responses. The Batcher calls it with each flushed
// batch; an unbatched NIC calls it inline with a batch of one.
//
// The shard is picked at flush time, not enqueue time, so a shard
// quarantined while the batch was queuing is routed around without
// dropping a single query; if every shard is quarantined each request gets
// its own Err-flagged response and ErrUnavailable — degraded-mode semantics
// per request. Health scoring records one outcome per request, so the
// circuit breaker sees the same evidence stream whatever the batch size.
//
// The loader's results are its own until its next batch, so each verdict is
// copied into its response while the shard is still held; the inputs are
// gathered into shard storage and let go of before the shard is released.
//
//lint:hotpath
func (n *NIC) execBatch(modelID uint16, items []*nic.BatchItem) {
	sh := n.pickShard()
	if sh == nil {
		n.unavailable.Add(uint64(len(items)))
		for _, it := range items {
			refuse(it.Resp, it.RequestID, modelID)
			it.Err = ErrUnavailable
		}
		return
	}
	sh.mu.Lock()
	inputs := sh.gather(items)
	results, stats, err := sh.loader.ServeBatch(modelID, inputs)
	clear(inputs)
	if err == nil {
		n.served.Add(uint64(len(items)))
		// Batch-level cycle accounting lands once: the whole point of the
		// matrix pass is that framing and reconfiguration are shared.
		sh.totals.Add(stats)
		for qi, it := range items {
			verdict(it.Resp, it.RequestID, modelID, &results[qi])
		}
	}
	sh.mu.Unlock()
	if err != nil {
		// Whole-batch failures are server-side (model dropped mid-flight,
		// DRAM fault): every request gets its own Err-flagged response,
		// and each counts against the shard's health window.
		sh.errQ.Add(uint64(len(items)))
		for _, it := range items {
			refuse(it.Resp, it.RequestID, modelID)
			it.Err = err
			n.recordOutcome(sh, true)
		}
		return
	}
	sh.servedQ.Add(uint64(len(items)))
	for _, it := range items {
		it.Err = nil
		n.recordOutcome(sh, false)
	}
}

// gather collects the items' inputs into the shard's storage, grown only
// when a batch outgrows every one before it. Caller holds sh.mu.
//
//lint:hotpath
func (sh *shard) gather(items []*nic.BatchItem) [][]fixed.Code {
	if cap(sh.inputs) < len(items) {
		sh.growInputs(len(items))
	}
	inputs := sh.inputs[:len(items)]
	for i, it := range items {
		inputs[i] = it.Input
	}
	return inputs
}

// growInputs is gather's cold path.
func (sh *shard) growInputs(n int) { sh.inputs = make([][]fixed.Code, n) }

// verdict writes one served result into resp, its probabilities into the
// array resp.Probs holds, grown only when it is short.
//
//lint:hotpath
func verdict(resp *nic.Response, id uint32, modelID uint16, res *dagloader.Result) {
	probs := probsBuf(resp.Probs, len(res.Probs))
	for i, p := range res.Probs {
		probs[i] = uint8(p)
	}
	*resp = nic.Response{RequestID: id, ModelID: modelID, Class: uint16(res.Class), Probs: probs}
}

// probsBuf returns n bytes of b's array, or a fresh array when b's is
// short: verdict's cold path.
func probsBuf(b []uint8, n int) []uint8 {
	if cap(b) < n {
		return make([]uint8, n)
	}
	return b[:n]
}

// refuse makes resp the Err-flagged response to one request, keeping the
// array of its Probs for the next.
func refuse(resp *nic.Response, id uint32, modelID uint16) {
	*resp = nic.Response{RequestID: id, ModelID: modelID, Err: true, Probs: resp.Probs[:0]}
}
