package datapath

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// The engine's one execution path. The layer, not the neuron, is the unit of
// a burst: the streamer feeds the DACs continuously (§5.1) and the preamble
// exists to find the ADC's phase at the head of a burst (§5.2). The host
// issues a layer's rows in order onto the burst (issueRows), by one of two
// passes picked by row width. A row narrower than wideRow is issued straight
// from bit masks (issueMasked): its sign and non-zero-magnitude masks are
// taken once for all queries and each query's non-zero-activation mask once
// for all rows, and the photonic kernel reads each sign group's live
// operands from the DRAM row and the activation vector where they lie
// (Core.ReadingsMaskedInto), a row's partials read out in one pass. A wider
// row goes through the operand pass: issueSpan sign-partitions every (row,
// query) of a span of such rows into one operand buffer and pushes the span
// through the photonic core in blocks of steps (rowpass.go), one kernel
// call a block and one readout a row's part of a block. Both digitize onto
// the tail of the layer's one sample stream; after the last row readBurst
// reads that stream once and reassembles every (row, query) dot from it. A
// lone query is the batch of one, and a convolution the layer whose rows are
// its kernels and whose batch is its im2col windows (ExecuteConv); there is
// no other way to a dot product. What a layer pays once for all its rows and
// all its queries:
//
//   - one preamble prefix, one readout phase, one preamble detection;
//   - one count-action reconfiguration and one DRAM weight stream (see
//     dagloader.ServeBatch);
//   - one re-bake check of the photonic core (Core.Rebake), taken as the
//     burst opens: faults land between queries, never inside a layer, so the
//     tables then follow the modulators for the whole layer, and the helpers
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
// do not depend on the order rows are issued in, on which pass issued them,
// on how they were grouped into spans and blocks, on which goroutines ran
// its blocks, or on anything — a health probe's Step, another row — that
// drew from the core in between.

// noiseKey names the noise stream of one row of the engine's burst'th layer
// burst: distinct for every (burst, row) below 2^32 rows.
func noiseKey(burst uint64, row int) uint64 { return burst<<32 | uint64(uint32(row)) }

// spanRows is how many rows of width n a span takes at batch q on a core of
// lanes lanes: as many as keep the sum of their step bounds within
// fanOutSteps, and at least one. A query's two sign groups each round up to
// a step, so a row takes at most q·⌊(n+2·lanes−2)/lanes⌋ steps —
// q·⌈(n+1)/2⌉ on two lanes — and a row wider than fanOutSteps allows is a
// span of its own, with the blocks and fan-out it had as a row. Only rows of
// wideRow elements or more are issued in spans: on two lanes a span holds
// at most 16/q of them, and from batch 16 on each row is a span.
func spanRows(n, q, lanes int) int {
	return max(1, fanOutSteps/max(1, q*((n+2*lanes-2)/lanes)))
}

// issueSpan issues the dot products W_j·x_q of rows [lo, hi) of w — a span
// of rows at least wideRow wide — for every query q in the batch onto the
// layer's burst. The span's rows are read in DRAM wire layout straight from
// the view (magnitude bytes plus the packed sign bitmap); activations are
// non-negative codes. One partitionWide call groups every (row, query) by
// weight sign so that every photonic accumulation step carries a single
// sign, which the cross-cycle adder-subtractor applies when reassembling
// (§5.3, Appendix C), into one flat operand buffer, row-major then query
// order, with a count-table entry per (row, query) in that order. The span's
// partials are digitized a block at a time (rowpass.go) into the samples it
// reserves on the burst — the first live span opens the burst, at an
// arbitrary phase behind the preamble prefix. A wide span's blocks may be
// run by helper goroutines; the span is theirs only until issueSpan returns.
//
// All working storage comes from the engine's scratch: after ensure has
// grown the buffers to the span's geometry × batch size, the steady state
// performs zero heap allocations (see the AllocsPerRun guard). The body
// therefore sticks to indexed writes, reslices and copies — growth lives in
// the cold helper. Not reentrant; the engine's single-owner contract applies.
func (e *Engine) issueSpan(w fixed.Packed, lo, hi int, xs [][]fixed.Code, stats *LayerStats) {
	q := len(xs)
	_, n := w.Dims()
	dots := q * (hi - lo)
	s := &e.scratch
	s.ensure(n, hi-lo, q)
	at := len(s.counts)
	s.counts = s.counts[:at+dots]
	p := &s.pass
	p.lanes = e.Core.NumLanes()
	p.bounds, p.rows = s.bounds[:2*dots+1], s.rows[:hi-lo+1]
	p.bounds[0] = 0
	total := partitionWide(s.bW, s.bX, w.Rows(lo, hi), n, xs, newCeilDiv(p.lanes), p.bounds, p.rows, s.counts[at:])
	stats.PhotonicSteps += uint64(total)
	if total == 0 {
		return
	}
	s.block.fit(2*dots, total)

	// One photonic pass in blocks (rowpass.go): the layer's re-bake, taken
	// as its first live span opens the burst, brings the core's tables to
	// its modulators for every row and every query's sign groups, each step
	// drawing its noise at its own position in its row's stream, each block
	// quantizing into its own stretch of the burst reserved here.
	if len(s.stream) == 0 {
		e.openBurst()
	}
	start := len(s.stream)
	s.stream = e.ADC.Reserve(s.stream, total)
	p.core, p.burst, p.row0, p.groups = e.Core, e.bursts, lo, 2*q
	p.a, p.b = s.bW[:p.bounds[2*dots]], s.bX[:p.bounds[2*dots]]
	p.out, p.blocks = s.stream[start:], (total+blockSteps-1)/blockSteps
	if p.blocks > 1 {
		p.starts = groupStarts(s.starts[:2*dots+1], s.counts[at:])
	}
	p.issue(&s.block)
	// The blocks only read the core: count the span's steps and leave the
	// cursor where a pass from it would stand, at the end of the span's last
	// row with a live product.
	last := hi - lo - 1
	for p.rows[last] == p.rows[last+1] {
		last--
	}
	e.Core.Steps += uint64(total)
	e.Core.SeekNoiseAt(noiseKey(e.bursts, lo+last), uint64(p.rows[last+1]-p.rows[last]))
}

// readBurst closes the layer's burst and writes every issued dot's
// reassembled accumulator into out, in issue order (row-major, then query):
// one readout of the preamble and every row's partials, one count-action
// preamble detection, and one walk of the count table through the
// cross-cycle adder, which slices the payload back into the segments each
// dot reassembles from on its own. A layer with no live product emitted no
// burst: it reads nothing and draws nothing.
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
	cycles, saturated := e.adder.reassemble(out, payload, counts)
	stats.ComputeCycles += cycles
	stats.SaturatedSamples += saturated
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

// issueRows issues rows [lo, hi) of w for every query in xs onto the
// layer's burst, by the pass the row width picks: issueMasked for rows
// narrower than wideRow, spans of issueSpan for wider ones.
func (e *Engine) issueRows(w fixed.Packed, lo, hi int, xs [][]fixed.Code, stats *LayerStats) {
	_, n := w.Dims()
	for _, x := range xs {
		if len(x) != n {
			panic(fmt.Sprintf("datapath: weight row length %d != activation length %d", n, len(x)))
		}
	}
	if n < wideRow {
		e.issueMasked(w, lo, hi, xs, stats)
		return
	}
	span := spanRows(n, len(xs), e.Core.NumLanes())
	for r := lo; r < hi; r += span {
		e.issueSpan(w, r, min(r+span, hi), xs, stats)
	}
}

// openBurst opens the layer's burst for its first live row, at a random
// phase behind the preamble prefix, and re-bakes the core's tables for the
// layer (Core.Rebake).
func (e *Engine) openBurst() {
	s := &e.scratch
	s.phase = e.ADC.RandomPhase()
	s.stream = e.ADC.OpenBurst(s.stream, e.pre, s.phase)
	e.Core.Rebake()
}

// issueMasked issues rows [lo, hi) of w, narrower than wideRow, for every
// query in xs onto the layer's burst, with no operand buffer: Lightning's
// streamer feeds the DACs straight from DRAM and its adder applies signs
// separated beforehand (§5.1, §5.3, Appendix C), and so does this pass. Each
// query's non-zero activations are taken as a bit mask once for all the
// rows. The layer's magnitudes are swept once into a bitmap of non-zero
// bytes laid out like the sign bitmap, and each row's non-zero-magnitude and
// sign masks are read out of the two as windows, once for all the queries.
// A dot's two sign groups are ANDs of those masks, and their popcounts fill
// its count-table entry. The kernel (Core.ReadingsMaskedInto) then reads
// each group's live operands from the rows and the activation vectors where
// they lie, a run of rows at a time whose steps reach a block's
// (blockSteps), so their readings are still in L1 when one ReadoutAt a row
// digitizes them at the row's place on the burst, under the row's key from
// draw 0. The steps, their readings and draws, the burst's bytes and the
// cursor left behind are the operand pass's (issueSpan) over the same rows.
// A layer with a live product opens the burst.
//
// The masks and the readings live in the engine's scratch, grown the first
// time a layer needs more; after that the pass allocates nothing.
func (e *Engine) issueMasked(w fixed.Packed, lo, hi int, xs [][]fixed.Code, stats *LayerStats) {
	_, n := w.Dims()
	q, words, nr := len(xs), (n+63)/64, hi-lo
	rows, s := w.Rows(lo, hi), &e.scratch
	s.fitMasks(n, q, nr)
	xm := s.masks[:q*words]
	for qi, x := range xs {
		nonZeroBits(s.nz, fixed.BytesOf(x))
		bitWindow(xm[qi*words:(qi+1)*words], s.nz, 0, n)
	}
	nonZeroBits(s.nz, rows.Mags[:nr*n])
	wm, sm := s.masks[q*words:(q+1)*words], s.masks[(q+1)*words:(q+2)*words]
	per := 2 * q * words // a row's group masks: each query's positive group, then its negative one
	gm := s.masks[(q+2)*words : (q+2)*words+nr*per]
	lanes := newCeilDiv(e.Core.NumLanes())
	at := len(s.counts)
	s.counts = s.counts[:at+q*nr]
	dots := s.counts[at:]
	total, last, lastSteps := 0, 0, 0
	for r, g := 0, gm; r < nr; r++ {
		bitWindow(wm, s.nz, r*n, n)
		bitWindow(sm, rows.Signs, rows.Bit+r*n, n)
		steps, xk, dr := 0, xm, dots[r*q:(r+1)*q]
		for qi := range dr {
			pos, neg := 0, 0
			for k, v := range wm {
				live := v & xk[k]
				p, ng := live&^sm[k], live&sm[k]
				g[k], g[words+k] = p, ng
				pos, neg = pos+bits.OnesCount64(p), neg+bits.OnesCount64(ng)
			}
			xk, g = xk[words:], g[2*words:]
			ps, ns := lanes.of(pos), lanes.of(neg)
			dr[qi] = dotCount{pos: ps, parts: ps + ns}
			steps += ps + ns
		}
		if steps > 0 {
			total, last, lastSteps = total+steps, r, steps
		}
	}
	stats.PhotonicSteps += uint64(total)
	if total == 0 {
		return
	}
	if len(s.stream) == 0 {
		e.openBurst()
	}
	start := len(s.stream)
	s.stream = e.ADC.Reserve(s.stream, total)
	out := s.stream[start:]
	for r := 0; r < nr; {
		r0, steps := r, 0
		for ; r < nr && steps < blockSteps; r++ {
			steps += rowSteps(dots[r*q : (r+1)*q])
		}
		if len(s.block.parts) < steps {
			s.block.parts = make([]float64, steps)
		}
		parts := s.block.parts[:steps]
		e.Core.ReadingsMaskedInto(parts, fixed.CodesOf(rows.Mags[r0*n:r*n]), n, xs, gm[r0*per:r*per], words)
		for j := r0; j < r; j++ {
			if k := rowSteps(dots[j*q : (j+1)*q]); k > 0 {
				e.Core.ReadoutAt(out[:k], parts[:k], noiseKey(e.bursts, lo+j), 0)
				out, parts = out[k:], parts[k:]
			}
		}
	}
	// Count the steps and leave the cursor where a pass from it would
	// stand, at the end of the last row with a live product.
	e.Core.Steps += uint64(total)
	e.Core.SeekNoiseAt(noiseKey(e.bursts, lo+last), uint64(lastSteps))
}

// rowSteps returns the steps of a row's dots.
func rowSteps(dots []dotCount) int {
	k := 0
	for _, d := range dots {
		k += d.parts
	}
	return k
}

// nonZeroBits sets bit i of bm — bit i&7 of byte i>>3, the sign bitmap's
// layout — when b[i] is not zero and clears it when it is, for every i below
// len(b), eight bytes a step.
func nonZeroBits(bm, b []byte) {
	const lows, tops = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		bm[i>>3] = topBits((v&lows + lows | v) & tops)
	}
	if i < len(b) {
		var t byte
		for k, c := range b[i:] {
			if c != 0 {
				t |= 1 << k
			}
		}
		bm[i>>3] = t
	}
}

// bitWindow sets bit i of m — bit i%64 of word i/64 — to bit from+i of bm
// (bit b in bit b&7 of byte b>>3), for every i below n, and clears m's other
// bits. A word reads eight bytes at once, and the ninth it needs when the
// window starts mid-byte, where the bitmap has them.
func bitWindow(m []uint64, bm []byte, from, n int) {
	sh := uint(from & 7)
	for k := range m {
		b := from>>3 + 8*k
		var v uint64
		if b+8 <= len(bm) {
			v = binary.LittleEndian.Uint64(bm[b:]) >> sh
			if sh != 0 && b+8 < len(bm) {
				v |= uint64(bm[b+8]) << (64 - sh)
			}
		} else {
			v = uint64(bm[b]) >> sh
			for j := 1; j < 8 && b+j < len(bm); j++ {
				v |= uint64(bm[b+j]) << (8*uint(j) - sh)
			}
		}
		if rest := n - 64*k; rest < 64 {
			v &= 1<<rest - 1
		}
		m[k] = v
	}
}

// wideRow is the narrowest row issued through the operand pass (issueSpan,
// partitionWide); narrower rows take the masked pass (issueMasked). The
// masked pass reads each live operand where it lies, a set bit at a time:
// on the coin-flip rows trained layers have it is faster than gathering
// them first, from the anomaly MLP's 16 and 32 elements to LeNet's 784
// (EXPERIMENTS.md, *Narrow rows issued straight from bit masks*). A wide row
// keeps what only the operand pass has: zero stretches skipped and dense
// runs moved in bulk (vision_frag's halves rows), and blocks fanned out to
// helpers.
const wideRow = 1024

// partitionWide sign-partitions a span: the len(rows)−1 rows of w, n
// elements each with their magnitudes back to back (fixed.Packed.Rows),
// against every activation vector in xs, into the flat operand buffers
// bW/bX, row-major then query order. Dot d — row d/q, query d%q — lays its
// products under a positive weight from bounds[2d] on and those under a
// negative weight right after them, both in element order, and takes one
// entry of each table: bounds[2d+1] and bounds[2d+2] end its two groups,
// dots[d] counts their steps (⌈group/lanes⌉ each), and rows[r] is the span
// step row r begins at. The caller sets bounds[0], where the first dot
// starts; partitionWide sets the rest and returns the span's step count,
// which it also leaves in rows' last entry. Zero products are left out:
// they need no analog step (sparse skip). A row's setup — its magnitudes
// and its sign window — is done once for all its queries.
//
// Each dot is walked by walkChunks, which hands the row back at a chunk of
// zero magnitudes or at a dense positive chunk. A zero stretch is then
// skipped in 256-byte blocks (zeroPrefix), and a dense run is extended as
// far as the magnitudes, the activations and the sign window allow
// (denseLen) and moved with two copies. A dot's negative group is staged
// one row width past its start while its positive count is unknown, and
// moved down onto the end of the positive group with two copies once it
// is. The walk's word stores reach up to seven bytes past a group's end,
// and every access stays inside the dot's region: a dot starting at c reads
// and writes only [c, c+2n), which the buffers must hold (ensure grants a
// span's dots one spare row width beyond their n bytes each). It takes a
// row of any width; the engine hands it rows of wideRow or more.
func partitionWide(bW, bX []fixed.Code, w fixed.Row, n int, xs [][]fixed.Code, lanes ceilDiv, bounds, rows []int, dots []dotCount) int {
	c, total, d := bounds[0], 0, 0
	rows[0] = 0
	for r := 1; r < len(rows); r++ {
		mags := w.Mags[(r-1)*n : r*n : r*n]
		bit := w.Bit + (r-1)*n
		signs, sh := w.Signs[bit>>3:], uint(bit&7)
		for _, x := range xs {
			x = x[:n]
			pos, neg := c, c+n
			for i := 0; ; {
				var dense bool
				i, pos, neg, dense = walkChunks(bW, bX, mags, x, signs, sh, i, pos, neg)
				if i == n {
					break
				}
				if !dense {
					i += 32 + zeroPrefix(mags[i+32:])&^7
					continue
				}
				k := denseLen(mags, x, signs, sh, i)
				copy(bW[pos:pos+k], fixed.CodesOf(mags[i:i+k]))
				copy(bX[pos:pos+k], x[i:i+k])
				pos, i = pos+k, i+k
			}
			nn := neg - (c + n)
			copy(bW[pos:pos+nn], bW[c+n:neg])
			copy(bX[pos:pos+nn], bX[c+n:neg])
			ps, ns := lanes.of(pos-c), lanes.of(nn)
			c = pos + nn
			bounds[2*d+1], bounds[2*d+2] = pos, c
			dots[d] = dotCount{pos: ps, parts: ps + ns}
			total += ps + ns
			d++
		}
		rows[r] = total
	}
	return total
}

// walkChunks is partitionWide's walk over one (row, query) dot, from
// element i, a multiple of eight, with the dot's positive cursor at pos and
// its negative stage's at neg. It walks the row as it sits in DRAM, 32
// elements to four magnitude words and a 32-bit sign window; a row whose
// first sign sits mid-byte reads its window across the bitmap's bytes. A
// chunk loads its activations only once its magnitudes are not all zero, and
// one whose activations are all zero is skipped whole. Any other chunk, and
// the octets past the last whole one, go an octet at a time through
// compaction: the octet's live products, split by sign, are gathered to the
// low bytes of a word by the compress table and stored as one word at each
// cursor, which advances by its group's count; an octet with no live product
// is not compacted. It returns where it stopped, the cursors there, and
// whether it stopped at a dense all-positive chunk: it stops at such a chunk
// or at a whole chunk of zero magnitudes, which partitionWide moves past in
// bulk, or at the row's end, n, past the octets after the last whole chunk
// and the elements after the last octet. Its loop makes no call, so the
// walk's values stay in registers.
func walkChunks(bW, bX []fixed.Code, mags []byte, x []fixed.Code, signs []byte, sh uint, i, pos, neg int) (int, int, int, bool) {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	n := len(mags)
	x = x[:n]
	for i+8 <= n {
		end := i + 32
		var sw uint32 // the signs of the octets [i, end), element i in bit 0
		if end <= n {
			m := mags[i:end:end]
			m0, m1 := binary.LittleEndian.Uint64(m), binary.LittleEndian.Uint64(m[8:])
			m2, m3 := binary.LittleEndian.Uint64(m[16:]), binary.LittleEndian.Uint64(m[24:])
			if m0|m1|m2|m3 == 0 {
				return i, pos, neg, false
			}
			xc := x[i:end:end]
			x0, x1, x2, x3 := octet(xc[0:8]), octet(xc[8:16]), octet(xc[16:24]), octet(xc[24:32])
			if x0|x1|x2|x3 == 0 {
				i = end
				continue
			}
			b := i >> 3
			sw = binary.LittleEndian.Uint32(signs[b:]) >> sh
			if sh != 0 {
				sw |= uint32(signs[b+4]) << (32 - sh)
			}
			zero := (m0-ones)&^m0 | (m1-ones)&^m1 | (m2-ones)&^m2 | (m3-ones)&^m3 |
				(x0-ones)&^x0 | (x1-ones)&^x1 | (x2-ones)&^x2 | (x3-ones)&^x3
			if sw == 0 && zero&tops == 0 {
				return i, pos, neg, true
			}
		} else {
			end = n &^ 7
			for k := uint(0); k < uint(end-i); k += 8 {
				b := (i + int(k)) >> 3
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
			if live == 0 {
				continue
			}
			pm, nm := live&^uint8(sw), live&uint8(sw)
			cs := &compress[pm]
			putOctet(bW[pos:pos+8:pos+8], cs.apply(mw))
			putOctet(bX[pos:pos+8:pos+8], cs.apply(xw))
			cs = &compress[nm]
			putOctet(bW[neg:neg+8:neg+8], cs.apply(mw))
			putOctet(bX[neg:neg+8:neg+8], cs.apply(xw))
			pos += bits.OnesCount8(pm)
			neg += bits.OnesCount8(nm)
		}
	}
	for ; i < n; i++ {
		m, xv := fixed.Code(mags[i]), x[i]
		if m == 0 || xv == 0 {
			continue
		}
		if b := int(sh) + i; signs[b>>3]>>(b&7)&1 != 0 {
			bW[neg], bX[neg] = m, xv
			neg++
		} else {
			bW[pos], bX[pos] = m, xv
			pos++
		}
	}
	return i, pos, neg, false
}

// denseLen returns how many elements from i, a multiple of eight whose chunk
// is dense and all positive, stay so, in whole octets: up to the first zero
// magnitude, zero activation or set sign bit. It looks in windows that
// double from 256 elements, so a short run costs a short search.
func denseLen(mags []byte, x []fixed.Code, signs []byte, sh uint, i int) int {
	n, xb := len(mags), fixed.BytesOf(x)
	end := i
	for win := 256; end < n; win *= 2 {
		lim := min(n, end+win)
		stop := lim
		if z := bytes.IndexByte(mags[end:stop], 0); z >= 0 {
			stop = end + z
		}
		if z := bytes.IndexByte(xb[end:stop], 0); z >= 0 {
			stop = end + z
		}
		stop = end + clearBits(signs, int(sh)+end, stop-end)
		if end = stop; stop < lim {
			break
		}
	}
	return (end - i) &^ 7
}

// clearBits returns how many of the limit bits of signs from bit from on
// (bit b in bit b&7 of byte b>>3) are clear before the first set one.
func clearBits(signs []byte, from, limit int) int {
	b, lo := from>>3, from&7
	if s := signs[b] >> lo; s != 0 {
		return min(bits.TrailingZeros8(s), limit)
	}
	k := 8 - lo
	if k >= limit {
		return limit
	}
	rest := signs[b+1 : b+1+(limit-k+7)/8]
	z := zeroPrefix(rest)
	if z == len(rest) {
		return limit
	}
	return min(k+8*z+bits.TrailingZeros8(rest[z]), limit)
}

// zeroBlock is what zeroPrefix compares a stretch against, a block at a time.
var zeroBlock [256]byte

// zeroPrefix returns how many of b's leading bytes are zero: 256-byte blocks
// at a time (bytes.Equal), then words, then bytes.
func zeroPrefix(b []byte) int {
	k := 0
	for len(b)-k >= len(zeroBlock) && bytes.Equal(b[k:k+len(zeroBlock)], zeroBlock[:]) {
		k += len(zeroBlock)
	}
	for ; len(b)-k >= 8; k += 8 {
		if v := binary.LittleEndian.Uint64(b[k:]); v != 0 {
			return k + bits.TrailingZeros64(v)/8
		}
	}
	for k < len(b) && b[k] == 0 {
		k++
	}
	return k
}

// ceilDiv divides by a core's lane count, rounding up, with one multiply in
// place of a division: m is ⌈2^64/lanes⌉, and the high word of m·x is ⌊x/lanes⌋
// for every x below 2^32 (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019). One lane, whose 2^64 does not fit, has m zero and
// divides by nothing.
type ceilDiv struct{ m, bias uint64 }

func newCeilDiv(lanes int) ceilDiv {
	if lanes == 1 {
		return ceilDiv{}
	}
	return ceilDiv{m: ^uint64(0)/uint64(lanes) + 1, bias: uint64(lanes) - 1}
}

// of returns ⌈x/lanes⌉ for 0 ≤ x < 2^32 − lanes.
func (d ceilDiv) of(x int) int {
	if d.m == 0 {
		return x
	}
	hi, _ := bits.Mul64(d.m, uint64(x)+d.bias)
	return int(hi)
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
// onto the layer's one burst by the pass their width picks (issueRows),
// which is read back once after the last row (readBurst).
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
	rows, _ := w.Dims()
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
	e.issueRows(w, 0, rows, xs, &res.Stats)
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
