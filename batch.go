package lightning

import (
	"github.com/lightning-smartnic/lightning/internal/dagloader"
	"github.com/lightning-smartnic/lightning/internal/datapath"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/frontdoor"
)

// serveGroup is the NIC's front-door handler (frontdoor.Handler) and its one
// way into the datapath: a read's queries, a worker's admission pop and
// HandleMessage's batch of one all arrive here. A control message is
// answered through the control plane in its place: the queries ahead of it
// run before it, the rest after. The queries' bytes are the engine's
// operand, not a copy: the engine only reads them, and the front door
// reuses their storage only once the group is answered.
func (n *NIC) serveGroup(reqs []frontdoor.Request, resps []Response, errs []error) {
	n.inflight.Add(1)
	defer n.inflight.Add(-1)
	start := 0
	for i := range reqs {
		if reqs[i].Control {
			n.serveQueries(reqs[start:i], resps[start:i], errs[start:i])
			errs[i] = n.handleControl(reqs[i].Model, reqs[i].Query, &resps[i])
			start = i + 1
		}
	}
	n.serveQueries(reqs[start:], resps[start:], errs[start:])
}

// serveQueries runs one execBatch pass per model, in the order of each
// model's first query.
func (n *NIC) serveQueries(reqs []frontdoor.Request, resps []Response, errs []error) {
next:
	for i := range reqs {
		for j := range reqs[:i] {
			if reqs[j].Model == reqs[i].Model {
				continue next // answered by the earlier query's pass
			}
		}
		n.execBatch(reqs[i].Model, reqs[i:], resps[i:], errs[i:])
	}
}

// execBatch is the NIC's one execution path: it runs the queries of reqs
// for modelID through a shard as one matrix pass and writes each verdict
// into its response, leaving the other models' queries alone.
//
// Client mistakes (unknown model, wrong input width) are refused first, each
// on its own: they never touch analog hardware, so they count against no
// shard's health and a degraded NIC still answers them. The shard is picked
// for the pass, so one quarantined while the queries waited is routed
// around; if every shard is quarantined each request gets its own
// Err-flagged response and ErrUnavailable. Health scoring records one
// outcome per request, whatever the batch size.
//
// The loader's results are its own until its next batch, so each verdict is
// copied into its response while the shard is still held; the inputs are
// gathered into shard storage and let go of before the shard is released.
func (n *NIC) execBatch(modelID uint16, reqs []frontdoor.Request, resps []Response, errs []error) {
	k := 0
	for j := range reqs {
		if reqs[j].Model != modelID {
			continue
		}
		if err := n.store.Validate(modelID, len(reqs[j].Query)); err != nil {
			resps[j].Err = true
			errs[j] = err
			continue
		}
		k++
	}
	if k == 0 {
		return
	}
	member := func(j int) bool { return reqs[j].Model == modelID && errs[j] == nil }
	err := ErrUnavailable
	sh := n.pickShard()
	if sh == nil {
		n.unavailable.Add(uint64(k))
	} else {
		sh.mu.Lock()
		if cap(sh.inputs) < k {
			sh.growInputs(k)
		}
		inputs, qi := sh.inputs[:k], 0
		for j := range reqs {
			if member(j) {
				inputs[qi] = fixed.CodesOf(reqs[j].Query)
				qi++
			}
		}
		var results []dagloader.Result
		var stats datapath.LayerStats
		results, stats, err = sh.loader.ServeBatch(modelID, inputs)
		clear(inputs)
		if err == nil {
			n.served.Add(uint64(k))
			// Batch-level cycle accounting lands once: the whole point of
			// the matrix pass is that framing and reconfiguration are shared.
			sh.totals.Add(stats)
			qi = 0
			for j := range reqs {
				if member(j) {
					verdict(&resps[j], reqs[j].ID, modelID, &results[qi])
					qi++
				}
			}
			sh.servedQ.Add(uint64(k))
		} else {
			sh.errQ.Add(uint64(k))
		}
		sh.mu.Unlock()
	}
	// A whole-pass failure is server-side (every shard down, a model dropped
	// mid-flight, a DRAM fault): every request gets its own Err-flagged
	// response, and each outcome counts in the shard's health window.
	for j := range reqs {
		if !member(j) {
			continue
		}
		if err != nil {
			refuse(&resps[j], reqs[j].ID, modelID)
			errs[j] = err
		}
		if sh != nil {
			n.recordOutcome(sh, err != nil)
		}
	}
}

// growInputs is execBatch's cold path: the shard's input storage, grown
// only when a pass outgrows every one before it. Caller holds sh.mu.
func (sh *shard) growInputs(n int) { sh.inputs = make([][]fixed.Code, n) }

// verdict writes one served result into resp, its probabilities into the
// array resp.Probs holds, grown only when it is short.
func verdict(resp *Response, id uint32, modelID uint16, res *dagloader.Result) {
	probs := probsBuf(resp.Probs, len(res.Probs))
	for i, p := range res.Probs {
		probs[i] = uint8(p)
	}
	*resp = Response{RequestID: id, ModelID: modelID, Class: uint16(res.Class), Probs: probs}
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
func refuse(resp *Response, id uint32, modelID uint16) {
	*resp = Response{RequestID: id, ModelID: modelID, Err: true, Probs: resp.Probs[:0]}
}
