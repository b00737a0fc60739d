package photonic

import "github.com/lightning-smartnic/lightning/internal/fixed"

// The core's one partials loop. The serve path coalesces the photonic work
// of many queries into one pass: a sequence of operand groups — each group is
// one query's same-sign operand block — streams back to back under a single
// LUT-validity decision. Every group keeps its own tail step, so the analog
// steps (and, with a noise model, the order of the noise draws) are exactly
// those of the groups run one call each; DotPartialsInto is the one-group
// case.

// DotPartialsBatchInto computes photonic partials for a sequence of operand
// groups in one pass. Group g occupies a[bounds[g]:bounds[g+1]] and
// b[bounds[g]:bounds[g+1]]; bounds must start at 0, end at len(a), and be
// non-decreasing (empty groups are legal and contribute no partials). Each
// group is streamed through the lanes independently — its final short step
// handles its own tail, never mixing elements of two groups in one analog
// step — and the per-step detector readings are written into dst in group
// order, concatenated.
//
// The LUT-validity decision is made once for the whole call: this is the
// batching amortization (N queries × 2 sign groups collapse 2N staleness
// sweeps into 1). A fault injected between queries (the granularity the fault
// runner operates at) is seen at the next call's first step.
//
// dst is caller-owned storage, reallocated only when capacity is short;
// with sufficient capacity the call performs zero heap allocations.
//
//lint:hotpath
func (c *Core) DotPartialsBatchInto(dst []float64, a, b []fixed.Code, bounds []int) []float64 {
	if len(a) != len(b) {
		panic("photonic: dot product operand length mismatch")
	}
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != len(a) {
		panic("photonic: batch bounds must run from 0 to len(a)")
	}
	n := c.NumLanes()
	total := 0
	for g := 0; g+1 < len(bounds); g++ {
		if bounds[g+1] < bounds[g] {
			panic("photonic: batch bounds must be non-decreasing")
		}
		total += (bounds[g+1] - bounds[g] + n - 1) / n
	}
	dst = growPartials(dst, total)
	fast := c.lutsValid()
	i := 0
	for g := 0; g+1 < len(bounds); g++ {
		hi := bounds[g+1]
		for off := bounds[g]; off < hi; off += n {
			end := off + n
			if end > hi {
				end = hi
			}
			if fast {
				dst[i] = c.stepFast(a[off:end], b[off:end])
			} else {
				dst[i] = c.Step(a[off:end], b[off:end])
			}
			i++
		}
	}
	return dst
}
