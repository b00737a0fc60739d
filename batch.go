package lightning

import (
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// execBatch is the NIC's one execution path: it runs a batch of same-model
// queries through a shard as one matrix pass and fans per-request verdicts
// back into the items. The Batcher calls it with each flushed batch; an
// unbatched NIC calls it inline with a batch of one.
//
// The shard is picked at flush time, not enqueue time, so a shard
// quarantined while the batch was queuing is routed around without
// dropping a single query; if every shard is quarantined each request gets
// its own Err-flagged response and ErrUnavailable — degraded-mode semantics
// per request. Health scoring records one outcome per request, so the
// circuit breaker sees the same evidence stream whatever the batch size.
func (n *NIC) execBatch(modelID uint16, items []*nic.BatchItem) {
	sh := n.pickShard()
	if sh == nil {
		n.unavailable.Add(uint64(len(items)))
		for _, it := range items {
			it.Resp = nic.Response{RequestID: it.RequestID, ModelID: modelID, Err: true}
			it.Err = ErrUnavailable
		}
		return
	}
	// A batch of one — every query of an unbatched NIC — gathers its input
	// on the stack.
	var one [1][]fixed.Code
	inputs := one[:]
	if len(items) > 1 {
		inputs = make([][]fixed.Code, len(items))
	}
	for i, it := range items {
		inputs[i] = it.Input
	}
	sh.mu.Lock()
	results, stats, err := sh.loader.ServeBatch(modelID, inputs)
	if err == nil {
		n.served.Add(uint64(len(items)))
		// Batch-level cycle accounting lands once: the whole point of the
		// matrix pass is that framing and reconfiguration are shared.
		sh.totals.Add(stats)
	}
	sh.mu.Unlock()
	if err != nil {
		// Whole-batch failures are server-side (model dropped mid-flight,
		// DRAM fault): every request gets its own Err-flagged response,
		// and each counts against the shard's health window.
		sh.errQ.Add(uint64(len(items)))
		for _, it := range items {
			it.Resp = nic.Response{RequestID: it.RequestID, ModelID: modelID, Err: true}
			it.Err = err
			n.recordOutcome(sh, true)
		}
		return
	}
	sh.servedQ.Add(uint64(len(items)))
	for qi, it := range items {
		res := &results[qi]
		probs := make([]uint8, len(res.Probs))
		for i, p := range res.Probs {
			probs[i] = uint8(p)
		}
		it.Resp = nic.Response{
			RequestID: it.RequestID,
			ModelID:   modelID,
			Class:     uint16(res.Class),
			Probs:     probs,
		}
		it.Err = nil
		n.recordOutcome(sh, false)
	}
}
