package datapath

import (
	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// engineScratch is the engine's reusable working storage. Every slice
// runDotBatch touches on the per-neuron path lives here and is resized —
// never reallocated in steady state — so executing a layer performs zero
// allocations per output neuron once the buffers have grown to the layer's
// geometry × batch size (see DESIGN.md §11).
//
// Ownership follows the engine's single-owner contract: an Engine (and so
// its scratch) belongs to exactly one shard goroutine at a time, the same
// rule the sharded NIC already enforces for the photonic core and DRAM
// reader it wraps. Nothing here is safe for concurrent use, and runDotBatch
// is not reentrant — callers must not feed slices that alias the scratch
// back into the engine.
type engineScratch struct {
	// bW/bX hold every query's sign-partitioned operands flattened back to
	// back (positive group then negative group per query), with one spare
	// row width at the end where the query being partitioned stages its
	// negative group. bounds delimits the 2Q groups for the core's pass.
	bW, bX []fixed.Code
	bounds []int
	// qPos/qParts record each query's positive-group and total partial
	// counts so the shared payload can be sliced back per query.
	qPos, qParts []int
	// row is where a weight row held as []fixed.Signed is packed into wire
	// layout on entry (fixed.PackRow); a Packed view never touches it.
	row []byte
	// bParts collects the concatenated analog partial readings, filled by
	// Core.DotPartialsBatchInto.
	bParts []float64
	// negs holds the per-partial sign controls for the cross-cycle adder.
	negs []bool
	// frames is the ADC readout for one neuron's burst: the engine's
	// preamble prefix followed by every query's analog partials.
	frames []converter.Frame
	// payload is the preamble-stripped sample stream.
	payload []fixed.Code

	// perQuery and rowOut are ExecuteFCBiasBatch's per-layer result slots:
	// the returned PerQuery slice and the neuron's per-query accumulators.
	perQuery []FCResult
	rowOut   []fixed.Acc
}

// ensure is runDotBatch's cold path: it grows the buffers to q queries of
// layer width n. A query contributes at most n operands, so q·n bounds the
// flattened operand buffers, plus the staging row in bW/bX; its two sign
// groups issue at most ⌈n/lanes⌉+1 partials between them, which bounds the
// sign controls. After it returns, the hot body runs on indexed writes and
// reslices only.
func (s *engineScratch) ensure(n, q, lanes int) {
	if len(s.bW) < (q+1)*n {
		s.bW = make([]fixed.Code, (q+1)*n)
		s.bX = make([]fixed.Code, (q+1)*n)
	}
	if cap(s.bounds) < 2*q+1 {
		s.bounds = make([]int, 2*q+1)
	}
	if cap(s.qPos) < q {
		s.qPos = make([]int, q)
		s.qParts = make([]int, q)
	}
	partials := q * ((n+lanes-1)/lanes + 1)
	if cap(s.negs) < partials {
		s.negs = make([]bool, partials)
	}
}

// layerOut returns the q-query result slots for one layer execution, grown
// only when the batch is wider than any before it.
func (s *engineScratch) layerOut(q int) ([]FCResult, []fixed.Acc) {
	if cap(s.perQuery) < q {
		s.perQuery = make([]FCResult, q)
		s.rowOut = make([]fixed.Acc, q)
	}
	return s.perQuery[:q], s.rowOut[:q]
}
