package datapath

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// The engine's one execution path. The layer, not the neuron, is the unit of
// a burst: the streamer feeds the DACs continuously (§5.1) and the preamble
// exists to find the ADC's phase at the head of a burst (§5.2). The unit the
// host issues is a span of consecutive rows, as many as keep their step
// bounds within fanOutSteps (spanRows): a small layer's rows are one span,
// and a row too wide to share one is a span of its own. issueSpan
// sign-partitions every (row, query) of a span into one operand buffer and
// pushes the span through the photonic core in blocks of steps (rowpass.go),
// one kernel call a block and one readout a row's part of a block,
// digitizing onto the tail of the layer's one sample stream; after the last
// span readBurst reads that stream once and reassembles every (row, query)
// dot from it. A lone query is the batch of one, and a convolution the layer
// whose rows are its kernels and whose batch is its im2col windows
// (ExecuteConv); there is no other way to a dot product. What a layer pays
// once for all its rows and all its queries:
//
//   - one preamble prefix, one readout phase, one preamble detection;
//   - one count-action reconfiguration and one DRAM weight stream (see
//     dagloader.ServeBatch);
//   - one LUT-validity sweep of the photonic core, taken as the burst opens:
//     faults land between queries, never inside a layer, and the helpers
//     that run a wide span's blocks only read the core.
//
// Equivalence contract: on an ideal (noiseless) channel a batched pass is
// bit-identical to running its queries one batch each — the analog steps per
// query are the same, payload samples quantize identically, and preamble
// detection recovers them exactly — which the differential suite enforces.
// Rows sharing a burst couple no more than queries do: every sign group
// keeps its own analog tail step and every dot its own payload segment. With
// a noise model the ADC's phase and idle-noise draws depend on how partials
// are framed into bursts; the core's per-step noise does not. Each row draws
// from its own keyed stream (noiseKey: the engine's burst count and the
// row's index), step s of the row at position s, so a row's noisy partials
// do not depend on the order rows are issued in, on how they were grouped
// into spans and blocks, on which goroutines ran its blocks, or on anything
// — a health probe's Step, another row — that drew from the core in between.

// noiseKey names the noise stream of one row of the engine's burst'th layer
// burst: distinct for every (burst, row) below 2^32 rows.
func noiseKey(burst uint64, row int) uint64 { return burst<<32 | uint64(uint32(row)) }

// spanRows is how many rows of width n a span takes at batch q on a core of
// lanes lanes: as many as keep the sum of their step bounds within
// fanOutSteps, and at least one. A query's two sign groups each round up to
// a step, so a row takes at most q·⌊(n+2·lanes−2)/lanes⌋ steps —
// q·⌈(n+1)/2⌉ on two lanes — and a row wider than fanOutSteps allows is a
// span of its own, with the blocks and fan-out it had as a row.
func spanRows(n, q, lanes int) int {
	return max(1, fanOutSteps/max(1, q*((n+2*lanes-2)/lanes)))
}

// issueSpan issues the dot products W_j·x_q of rows [lo, hi) of w — a span —
// for every query q in the batch onto the layer's burst. Each row is read
// in DRAM wire layout straight from the view (magnitude bytes plus the
// packed sign bitmap); activations are non-negative codes. Each (row, query)
// is grouped by weight sign so that every photonic accumulation step carries
// a single sign, which the cross-cycle adder-subtractor applies when
// reassembling (§5.3, Appendix C), into one flat operand buffer, row-major
// then query order, with a count-table entry per (row, query) in that order.
// The span's partials are digitized a block at a time (rowpass.go) into the
// samples it reserves on the burst — the first live span opens the burst,
// at an arbitrary phase behind the preamble prefix. A wide span's blocks may
// be run by helper goroutines; the span is theirs only until issueSpan
// returns.
//
// All working storage comes from the engine's scratch: after ensure has
// grown the buffers to the span's geometry × batch size, the steady state
// performs zero heap allocations (see the AllocsPerRun guard). The body
// therefore sticks to indexed writes, reslices and copies — growth lives in
// the cold helper. Not reentrant; the engine's single-owner contract applies.
func (e *Engine) issueSpan(w fixed.Packed, lo, hi int, xs [][]fixed.Code, stats *LayerStats) {
	q := len(xs)
	_, n := w.Dims()
	lanes := e.Core.NumLanes()
	dots := q * (hi - lo)
	s := &e.scratch
	s.ensure(n, dots)
	s.bounds, s.starts = s.bounds[:2*dots+1], s.starts[:2*dots+1]
	s.counts = s.counts[:len(s.counts)+dots]
	counts := s.counts[len(s.counts)-dots:]
	s.bounds[0], s.starts[0] = 0, 0
	bi, total, d := 0, 0, 0
	// last is the span's last row with a live product and lastSteps its
	// step count: where a pass from the cursor would leave it.
	last, lastSteps := 0, 0
	for j := lo; j < hi; j++ {
		row, _ := w.Row(j, nil)
		rowStart := total
		for _, x := range xs {
			if len(x) != n {
				panic(fmt.Sprintf("datapath: weight row length %d != activation length %d", n, len(x)))
			}
			// Positive-weight products land in place (the streamer orders
			// them first); negative ones stage one row width up — ensure
			// left the room — and close the gap once the positive count is
			// known.
			stage := bi + n
			pi, ni := partition(s.bW, s.bX, row, x, bi, stage)
			np, nn := pi-bi, ni-stage
			copy(s.bW[pi:], s.bW[stage:ni])
			copy(s.bX[pi:], s.bX[stage:ni])
			bi = pi + nn
			posSteps := (np + lanes - 1) / lanes
			negSteps := (nn + lanes - 1) / lanes
			counts[d] = dotCount{pos: posSteps, parts: posSteps + negSteps}
			s.bounds[2*d+1], s.bounds[2*d+2] = pi, bi
			s.starts[2*d+1], s.starts[2*d+2] = total+posSteps, total+posSteps+negSteps
			total += posSteps + negSteps
			d++
		}
		if total > rowStart {
			last, lastSteps = j, total-rowStart
		}
	}
	stats.PhotonicSteps += uint64(total)
	if total == 0 {
		return
	}
	s.block.fit(2*dots, total)

	// One photonic pass in blocks (rowpass.go): the layer's LUT-validity
	// decision, taken as its first live span opens the burst, covers every
	// row and every query's sign groups, each step drawing its noise at its
	// own position in its row's stream, each block quantizing into its own
	// stretch of the burst reserved here.
	if len(s.stream) == 0 {
		s.phase = e.ADC.RandomPhase()
		s.stream = e.ADC.OpenBurst(s.stream, e.pre, s.phase)
		s.pass.fast = e.Core.LUTsValid()
	}
	at := len(s.stream)
	s.stream = e.ADC.Reserve(s.stream, total)
	p := &s.pass
	p.core, p.lanes, p.burst, p.row0, p.groups = e.Core, lanes, e.bursts, lo, 2*q
	p.a, p.b, p.bounds, p.starts = s.bW[:bi], s.bX[:bi], s.bounds, s.starts
	p.out, p.blocks = s.stream[at:], (total+blockSteps-1)/blockSteps
	p.issue(&s.block)
	if p.fast {
		// Step counted its own steps and left the cursor here on a stale
		// core; leave both where they stand after a pass from the cursor.
		e.Core.Steps += uint64(total)
		e.Core.SeekNoiseAt(noiseKey(e.bursts, last), uint64(lastSteps))
	}
}

// readBurst closes the layer's burst and writes every issued dot's
// reassembled accumulator into out, in issue order (row-major, then query):
// one readout of the preamble and every row's partials, one count-action
// preamble detection, and the count table slicing the payload back into the
// segments each dot reassembles from on its own. A layer with no live
// product emitted no burst: it reads nothing and draws nothing.
func (e *Engine) readBurst(out []fixed.Acc, stats *LayerStats) {
	s := &e.scratch
	counts := s.counts
	s.counts = s.counts[:0]
	if len(out) < len(counts) {
		panic(fmt.Sprintf("datapath: out length %d < %d dots issued", len(out), len(counts)))
	}
	var payload []fixed.Code
	if len(s.stream) > 0 {
		total := len(s.stream) - s.phase - len(e.pre)
		stream := e.ADC.CloseBurst(s.stream)
		s.stream = stream[:0]
		stats.DatapathCycles += uint64(len(stream) / converter.SamplesPerCycle)
		payload = e.locate(stream, s.phase, total, stats)
	}
	for i, c := range counts {
		out[i] = e.reassemble(payload[:c.parts], c.pos, stats)
		payload = payload[c.parts:]
	}
}

// locate finds a burst's total payload samples in its readout. An
// undetected preamble and a lock that runs the payload off the burst's end
// are the same miss — the samples the count table promises are not there —
// and take the exception path: fall back to the known phase.
func (e *Engine) locate(stream []fixed.Code, phase, total int, stats *LayerStats) []fixed.Code {
	var payload []fixed.Code
	e.detector.Reset()
	if k, _, ok := e.detector.DetectStream(stream); ok {
		payload = e.detector.StreamPayload(stream, k, total)
	}
	if len(payload) < total {
		stats.PreambleMisses++
		payload = e.detector.StreamPayload(stream, phase, total)
	}
	return payload
}

// reassemble folds one dot's payload segment — its first pos samples under a
// positive sign, the rest negative — through the cross-cycle adder and the
// intra-cycle tree, charging the hardware's cycle a readout and the tree.
func (e *Engine) reassemble(seg []fixed.Code, pos int, stats *LayerStats) fixed.Acc {
	e.adder.SetPartialsPerDot(len(seg))
	sum, treeCycles, saturated := e.adder.Dot(seg, pos)
	stats.ComputeCycles += uint64((len(seg)+Lanes-1)/Lanes + treeCycles)
	stats.SaturatedSamples += uint64(saturated)
	return sum
}

// partition sign-partitions one weight row against one activation vector
// into the flat operand buffers: products under a positive weight go to
// bW/bX from pos on, those under a negative weight from neg on, both in
// element order, and it returns where each group ends. Zero products are
// left out: they need no analog step (sparse skip).
//
// The row is walked the way it sits in DRAM, 32 elements to four magnitude
// words and a 32-bit sign window. A chunk whose magnitude words or whose
// activations are all zero is skipped whole, and one with no zero product
// under an all-positive window is moved as eight word stores. Any other
// chunk, and the octets past the last whole one, go an octet at a time
// through compaction: the octet's live products, split by sign, are
// gathered to the low bytes of a word by the compress table and stored as
// one word at each cursor, which advances by its group's count. A row whose
// first sign sits mid-byte reads its window across the bitmap's bytes.
//
// The word stores reach up to seven bytes past a group's end. They stay in
// the group's region: at octet [i, i+8) the cursors are at most pos+i and
// neg+i, so the caller grants n bytes from each of pos and neg, and the
// regions must not overlap (issueSpan stages neg one row width past pos).
func partition(bW, bX []fixed.Code, w fixed.Row, x []fixed.Code, pos, neg int) (int, int) {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	mags, signs := w.Mags, w.Signs
	n := len(mags)
	x = x[:n]
	sh := uint(w.Bit & 7)
	i := 0
	for i+8 <= n {
		end := i + 32
		var sw uint32 // the signs of the octets [i, end), element i in bit 0
		if end <= n {
			m, xc := mags[i:end:end], x[i:end:end]
			m0, m1 := binary.LittleEndian.Uint64(m), binary.LittleEndian.Uint64(m[8:])
			m2, m3 := binary.LittleEndian.Uint64(m[16:]), binary.LittleEndian.Uint64(m[24:])
			x0, x1, x2, x3 := octet(xc[0:8]), octet(xc[8:16]), octet(xc[16:24]), octet(xc[24:32])
			if m0|m1|m2|m3 == 0 || x0|x1|x2|x3 == 0 {
				i = end
				continue
			}
			b := (w.Bit + i) >> 3
			sw = binary.LittleEndian.Uint32(signs[b:]) >> sh
			if sh != 0 {
				sw |= uint32(signs[b+4]) << (32 - sh)
			}
			zero := (m0-ones)&^m0 | (m1-ones)&^m1 | (m2-ones)&^m2 | (m3-ones)&^m3 |
				(x0-ones)&^x0 | (x1-ones)&^x1 | (x2-ones)&^x2 | (x3-ones)&^x3
			if sw == 0 && zero&tops == 0 {
				dw, dx := bW[pos:pos+32:pos+32], bX[pos:pos+32:pos+32]
				putOctet(dw[0:8], m0)
				putOctet(dw[8:16], m1)
				putOctet(dw[16:24], m2)
				putOctet(dw[24:32], m3)
				putOctet(dx[0:8], x0)
				putOctet(dx[8:16], x1)
				putOctet(dx[16:24], x2)
				putOctet(dx[24:32], x3)
				pos += 32
				i = end
				continue
			}
		} else {
			end = n &^ 7
			for k := uint(0); k < uint(end-i); k += 8 {
				b := (w.Bit + i + int(k)) >> 3
				sb := signs[b] >> sh
				if sh != 0 {
					sb |= signs[b+1] << (8 - sh)
				}
				sw |= uint32(sb) << k
			}
		}
		for ; i < end; i, sw = i+8, sw>>8 {
			mw := binary.LittleEndian.Uint64(mags[i:])
			xw := octet(x[i : i+8 : i+8])
			live := liveMask(mw, xw)
			pm, nm := live&^uint8(sw), live&uint8(sw)
			c := &compress[pm]
			putOctet(bW[pos:pos+8:pos+8], c.apply(mw))
			putOctet(bX[pos:pos+8:pos+8], c.apply(xw))
			c = &compress[nm]
			putOctet(bW[neg:neg+8:neg+8], c.apply(mw))
			putOctet(bX[neg:neg+8:neg+8], c.apply(xw))
			pos += bits.OnesCount8(pm)
			neg += bits.OnesCount8(nm)
		}
	}
	for ; i < n; i++ {
		m, xv := fixed.Code(mags[i]), x[i]
		if m == 0 || xv == 0 {
			continue
		}
		if w.Neg(i) {
			bW[neg], bX[neg] = m, xv
			neg++
		} else {
			bW[pos], bX[pos] = m, xv
			pos++
		}
	}
	return pos, neg
}

// liveMask returns the octet's live products as a byte, element k in bit k:
// those whose magnitude byte in mw and activation byte in xw are both
// non-zero.
func liveMask(mw, xw uint64) uint8 {
	const lows, tops = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	nz := ((mw&lows + lows) | mw) & ((xw&lows + lows) | xw) & tops // top bit of each live byte
	return topBits(nz)
}

// compressStages holds what compacting the bytes of a word selected by one
// 8-bit mask takes: the selected bytes, and the byte-granular stage masks of
// the compress operation (Hacker's Delight §7-4) that move them one, two and
// four bytes down.
type compressStages struct{ sel, mv1, mv2, mv4 uint64 }

// apply gathers v's selected bytes, in order, into its low bytes; the bytes
// above them are zero.
func (c *compressStages) apply(v uint64) uint64 {
	v &= c.sel
	t := v & c.mv1
	v = v ^ t | t>>8
	t = v & c.mv2
	v = v ^ t | t>>16
	t = v & c.mv4
	return v ^ t | t>>32
}

// compress holds the compress stages of every octet mask, built once when
// the package is initialized.
var compress = func() (tab [256]compressStages) {
	spread := func(m uint8) (v uint64) { // bit k to byte k
		for k := 0; k < 8; k++ {
			v |= uint64(m>>k&1) * 0xff << (8 * k)
		}
		return v
	}
	for sel := range tab {
		m := uint8(sel)
		mk := ^m << 1 // bit k: element k-1 is not selected
		var mv [3]uint64
		for s := range mv {
			mp := mk ^ mk<<1 // bit k: an odd count of mk's bits at or below k
			mp ^= mp << 2
			mp ^= mp << 4
			v := mp & m
			mv[s] = spread(v)
			m = m ^ v | v>>(1<<s)
			mk &^= mp
		}
		tab[sel] = compressStages{spread(uint8(sel)), mv[0], mv[1], mv[2]}
	}
	return tab
}()

// octet loads eight codes as one word, the first in the low byte: what
// binary.LittleEndian.Uint64 is to a []byte.
func octet(c []fixed.Code) uint64 {
	_ = c[7]
	return uint64(c[0]) | uint64(c[1])<<8 | uint64(c[2])<<16 | uint64(c[3])<<24 |
		uint64(c[4])<<32 | uint64(c[5])<<40 | uint64(c[6])<<48 | uint64(c[7])<<56
}

// putOctet stores v's eight bytes into d, least significant first.
func putOctet(d []fixed.Code, v uint64) {
	_ = d[7]
	d[0], d[1], d[2], d[3] = fixed.Code(v), fixed.Code(v>>8), fixed.Code(v>>16), fixed.Code(v>>24)
	d[4], d[5], d[6], d[7] = fixed.Code(v>>32), fixed.Code(v>>40), fixed.Code(v>>48), fixed.Code(v>>56)
}

// BatchFCResult is the output of one fully-connected layer executed for a
// batch of queries in a single matrix pass.
type BatchFCResult struct {
	// PerQuery holds each query's layer output in batch order. The slice
	// and the Raw/Quantized/Probs vectors it points at are the engine's:
	// they are valid until the engine's next layer execution, which may
	// overwrite them, so a caller that keeps an output past that copies
	// it (ExecuteFCBias does). A vector's capacity ends at its length.
	// The per-query Stats fields are zero: cycle accounting for a batched
	// pass is inherently shared, so it lives in Stats below.
	PerQuery []FCResult
	// Stats is the whole-batch accounting for this layer pass. Shared
	// overheads (the per-layer reconfiguration cost, preambles, ADC
	// framing) appear once per batch — the amortization the batched
	// datapath exists to buy.
	Stats LayerStats
}

// ExecuteFCBiasBatch runs a fully-connected layer for every query in xs as
// one matrix-matrix pass: out_q[j] = act(Σ_i W[j][i]·x_q[i] + bias[j]).
// The weights are taken in DRAM wire layout — a Packed view as it is, a
// Matrix packed into engine scratch once a layer — and the rows are issued
// onto the layer's one burst a span of them at a time (issueSpan), which is
// read back once after the last span (readBurst).
// The bias (in raw accumulator units) is added digitally after the
// intra-cycle adder tree.
// requantShift is the per-layer right-shift mapping 16-bit accumulators back
// onto 8-bit activation codes for the next layer (computed offline by the DAG
// loader together with the weight scales). The fixed per-layer datapath
// overhead is paid once for the whole batch.
//
// The outputs are written into engine storage (BatchFCResult.PerQuery) only
// after every row has been issued, so the steady state allocates nothing.
// An input must still not alias them: the caller that chains layers hands
// each the previous layer's outputs copied into storage of its own
// (dagloader.Loader.ServeBatch).
func (e *Engine) ExecuteFCBiasBatch(weights fixed.Weights, bias []fixed.Acc, xs [][]fixed.Code, act Activation, requantShift uint) BatchFCResult {
	var w fixed.Packed
	w, e.scratch.packed = weights.PackInto(e.scratch.packed)
	rows, n := w.Dims()
	q := len(xs)
	perQuery, acc := e.scratch.layerOut(rows, q, act == ActSoftmax)
	res := BatchFCResult{PerQuery: perQuery}
	e.scratch.beginLayer()
	e.armAdder()
	e.bursts++
	// Fixed per-layer datapath overhead: DAG configuration register writes
	// and stream setup (the 193 ns/layer of §9 at 253.44 MHz ≈ 49 cycles) —
	// once per batch, not once per query.
	res.Stats.DatapathCycles += PerLayerOverheadCycles
	span := spanRows(n, q, e.Core.NumLanes())
	for lo := 0; lo < rows; lo += span {
		e.issueSpan(w, lo, min(lo+span, rows), xs, &res.Stats)
	}
	e.readBurst(acc, &res.Stats)
	for j := 0; j < rows; j++ {
		for qi, v := range acc[j*q : (j+1)*q] {
			if j < len(bias) {
				v = fixed.SatAdd(v, bias[j])
			}
			perQuery[qi].Raw[j] = v
		}
	}
	for qi := range perQuery {
		r := &perQuery[qi]
		switch act {
		case ActReLU:
			ReLUVec(r.Raw)
			res.Stats.ComputeCycles += CyclesReLU
		case ActSoftmax:
			softmaxInto(r.Probs, r.Raw)
			res.Stats.ComputeCycles += CyclesSoftmax
		}
		requantizeInto(r.Quantized, r.Raw, requantShift)
	}
	return res
}
