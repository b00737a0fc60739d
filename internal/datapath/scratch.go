package datapath

import (
	"slices"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// engineScratch is the engine's reusable working storage. Every slice
// issueSpan and readBurst touch lives here and is resized — never
// reallocated in steady state — so executing a layer performs zero
// allocations once the buffers have grown to the layer's geometry × batch
// size (see DESIGN.md §11).
//
// Ownership follows the engine's single-owner contract: an Engine (and so
// its scratch) belongs to exactly one shard goroutine at a time, the same
// rule the sharded NIC already enforces for the photonic core and DRAM
// reader it wraps. Nothing here is safe for concurrent use, and a burst is
// not reentrant — callers must not feed slices that alias the scratch back
// into the engine. The one sharing is internal: while issueSpan runs a wide
// span, helper goroutines read that span's operands and write its stretch of
// the stream through pass, and issueSpan returns only once they have let go.
type engineScratch struct {
	// bW/bX hold one span's sign-partitioned operands for every (row,
	// query), flattened back to back in that order (positive group then
	// negative group each), with one spare row width at the end where the
	// dot being partitioned stages its negative group. bounds delimits the
	// span's groups for the core's pass and starts the span step each group
	// begins at.
	bW, bX         []fixed.Code
	bounds, starts []int
	// packed is where a Matrix is packed into wire layout once a layer
	// (fixed.Weights.PackInto); a Packed view never touches it.
	packed []byte
	// block holds the readings and group bounds of the block the engine's
	// goroutine is running (rowpass.go); pass is the span those blocks
	// belong to. Helpers bring their own block storage.
	block blockBuf
	pass  spanPass

	// stream is the layer's one burst as the ADC reads it, flat: idle noise
	// up to phase, the preamble prefix, then every row's digitized partials
	// in issue order — a byte a sample, sized by the partials issued. It is
	// empty until a row has a live product, and never empty after: the
	// preamble is at least two cycles long (NewDetector). counts is the table
	// that slices its payload back apart: one entry per (row, query) in issue
	// order.
	stream []fixed.Code
	phase  int
	counts []dotCount

	// perQuery and acc are ExecuteFCBiasBatch's per-layer result slots: the
	// returned PerQuery slice and the rows × q reassembled accumulators.
	// raw, quant and probs hold the vectors PerQuery points at, rows a
	// query back to back: a layer's outputs live here until the engine's
	// next layer execution, so a served layer allocates no result.
	perQuery []FCResult
	acc      []fixed.Acc
	raw      []fixed.Acc
	quant    []fixed.Code
	probs    []fixed.Code
}

// dotCount is one dot product's share of a burst: it put parts partials on
// the stream, the first pos of them under a positive weight sign.
type dotCount struct{ pos, parts int }

// ensure is issueSpan's cold path: it grows the buffers to dots (row,
// query) dot products of layer width n. A dot contributes at most n
// operands, so dots·n bounds the flattened operand buffers, plus the staging
// row in bW/bX. After it returns, the hot body runs on indexed writes and
// reslices only. The block's readings are sized once the span is
// partitioned, by the steps it issues (blockBuf.fit).
func (s *engineScratch) ensure(n, dots int) {
	if len(s.bW) < (dots+1)*n {
		s.bW = make([]fixed.Code, (dots+1)*n)
		s.bX = make([]fixed.Code, (dots+1)*n)
	}
	if cap(s.bounds) < 2*dots+1 {
		s.bounds = make([]int, 2*dots+1)
		s.starts = make([]int, 2*dots+1)
	}
	s.counts = slices.Grow(s.counts, dots)
}

// beginLayer discards whatever burst a layer that panicked between issue and
// readout left behind, so an engine reused after a recovered panic starts the
// next layer on an empty stream and count table.
func (s *engineScratch) beginLayer() {
	s.stream, s.counts = s.stream[:0], s.counts[:0]
}

// layerOut returns the result slots for one layer execution of rows output
// neurons × q queries, each query's Raw and Quantized vectors (and its Probs
// under a softmax) sliced out of the engine's storage, grown only when the
// layer outgrows any before it. Every vector's capacity ends where its
// length does, so a caller's append cannot run into the next query's.
func (s *engineScratch) layerOut(rows, q int, softmax bool) ([]FCResult, []fixed.Acc) {
	n := rows * q
	if cap(s.perQuery) < q || cap(s.acc) < n || cap(s.raw) < n || (softmax && cap(s.probs) < n) {
		s.grow(rows, q, softmax)
	}
	perQuery := s.perQuery[:q]
	for qi := range perQuery {
		lo, hi := qi*rows, (qi+1)*rows
		r := FCResult{Raw: s.raw[lo:hi:hi], Quantized: s.quant[lo:hi:hi]}
		if softmax {
			r.Probs = s.probs[lo:hi:hi]
		}
		perQuery[qi] = r
	}
	return perQuery, s.acc[:n]
}

// grow is layerOut's cold path: it sizes the result storage for rows × q.
func (s *engineScratch) grow(rows, q int, softmax bool) {
	n := rows * q
	if cap(s.perQuery) < q {
		s.perQuery = make([]FCResult, q)
	}
	if cap(s.acc) < n {
		s.acc = make([]fixed.Acc, n)
	}
	if cap(s.raw) < n {
		s.raw = make([]fixed.Acc, n)
		s.quant = make([]fixed.Code, n)
	}
	if softmax && cap(s.probs) < n {
		s.probs = make([]fixed.Code, n)
	}
}
