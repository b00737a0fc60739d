package lightning

import (
	"github.com/lightning-smartnic/lightning/internal/dagloader"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/frontdoor"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// execBatch is the NIC's one execution path: it runs a batch of same-model
// queries through a shard as one matrix pass and fans per-request verdicts
// back into the items' responses. The Batcher calls it with each flushed
// batch; an unbatched NIC calls it with each model's queries of an inline
// read group (readGroup), and inline with a batch of one for a worker or a
// HandleMessage caller.
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

// readGroup is one Serve call's inline-reader storage on a NIC with no batch
// queue: a BatchItem per query of a group and one pass's item pointers,
// grown only when a group outgrows every one before it. Only that call's
// reader touches it.
type readGroup struct {
	n     *NIC
	items []nic.BatchItem
	pass  []*nic.BatchItem
}

// serve is serveRequest's group form, the inline reader's GroupHandler: it
// answers the complete queries of one batched read as one execBatch pass
// per model, each model's pass in the order of its first query. Client
// mistakes are refused per query before any pass, as serveRequest refuses
// them, so a wrong-width query costs its groupmates nothing. Noiselessly
// every response is byte-equal to serveRequest's for the same query.
//
//lint:hotpath
func (g *readGroup) serve(reqs []frontdoor.Request, resps []Response, _ []nic.BatchShare) {
	n := g.n
	n.inflight.Add(1)
	defer n.inflight.Add(-1)
	if len(g.items) < len(reqs) {
		g.grow(len(reqs))
	}
	items := g.items[:len(reqs)]
	for i := range reqs {
		if err := n.store.Validate(reqs[i].Model, len(reqs[i].Query)); err != nil {
			resps[i].Err = true
			continue
		}
		items[i] = nic.BatchItem{RequestID: reqs[i].ID, Input: fixed.CodesOf(reqs[i].Query), Resp: &resps[i]}
	}
	// An item with a response still owes its pass; each pass hands its
	// items back zeroed, so the storage pins no query once it returns.
	for i := range items {
		if items[i].Resp == nil {
			continue
		}
		model, k := reqs[i].Model, 0
		for j := i; j < len(items); j++ {
			if items[j].Resp != nil && reqs[j].Model == model {
				g.pass[k] = &items[j]
				k++
			}
		}
		n.execBatch(model, g.pass[:k])
		for _, it := range g.pass[:k] {
			*it = nic.BatchItem{}
		}
	}
}

// grow is serve's cold path.
func (g *readGroup) grow(k int) {
	g.items = make([]nic.BatchItem, k)
	g.pass = make([]*nic.BatchItem, k)
}
