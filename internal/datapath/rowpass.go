package datapath

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// A span's photonic pass and digitization run as blocks of blockSteps steps
// of the span (batch.go). The span's steps are its rows' steps back to back,
// so a block may hold the tail of one row, whole rows and the head of
// another. Block k streams its lane-aligned operand slices — every sign group
// it holds, the first and last cut at the block's edges — through the core
// in one kernel call (Core.ReadingsGroupsInto) into noiseless readings. It
// then reads each row's part of them out in one pass under the row's own
// key: step s of row j draws draw s of noiseKey(burst, j), so a part that
// starts at span step p of a row starting at span step r reads from draw
// p−r. The codes land in the block's own stretch of the layer's burst, which
// the caller has already opened and reserved. No block reads another's
// output and every draw is named by its row and position, so the burst's
// bytes are the same whichever goroutine ran which block, in what order, and
// however the rows were grouped into spans.
//
// A span of fanOutSteps or more steps on a core whose LUTs hold, with more
// than one P, is offered to the process's helpers: the caller and whichever
// helpers take the offer claim blocks from an atomic cursor until none are
// left. Only a row too wide to share a span reaches that width, save a span
// whose every dot meets its step bound (spanRows). Every other span — and
// every span of a layer the engine runs serially — is the same blocks run
// inline by the caller, with no atomic and no channel operation. A stale
// core runs its blocks inline through Step, seeking the cursor to each
// group's row and position first.

const (
	// blockSteps is the unit of work: 16 KB of partials, so a block's
	// readings are still in L1 when it reads them out, and ≈ 16 µs of
	// work at ≈ 8 ns a step (readings, noise and ADC codes of a two-lane
	// core, on a 2-vCPU KVM guest): how long the caller waits for a
	// helper's last block, unless the helper is preempted.
	blockSteps = 2048
	// fanOutSteps is the smallest span offered to helpers, and what a span
	// of several rows stays within. A handoff costs the caller its P until
	// the runtime has woken another (offer), and up to a block's wait at
	// the end of the span; on a 2-vCPU KVM guest a 4096-step row ran
	// ≈ 15 % slower fanned out and an 8192-step row ≈ 15–20 % faster. The
	// MLP workloads' layers are one span each, of a few hundred to a few
	// thousand steps, and never reach it.
	fanOutSteps = 4 * blockSteps
)

// spanPass is one span's blocks. The caller fills the fields below the
// atomics before it opens the span to helpers and leaves them alone until
// every attached helper has detached.
type spanPass struct {
	// next is the next unclaimed block; state holds open while helpers
	// may attach, plus one per attached helper.
	next  atomic.Int64
	state atomic.Int64

	core *photonic.Core
	// fast records that the core's LUTs held when the layer's burst
	// opened.
	fast  bool
	lanes int
	// burst and row0 name the noise stream of the span's rows: row row0+r
	// draws from noiseKey(burst, row0+r). A row has groups sign groups, two
	// a query.
	burst        uint64
	row0, groups int
	// a and b are the span's sign-partitioned operands, group g spanning
	// [bounds[g], bounds[g+1]); starts[g] is the span step group g begins
	// at, and its last entry the span's step count. Row r's steps are
	// [starts[r·groups], starts[(r+1)·groups]).
	a, b           []fixed.Code
	bounds, starts []int
	// out is the span's stretch of the layer's burst, one sample a step.
	out    []fixed.Code
	blocks int
}

// blockBuf is the working storage of whoever runs a block: readings for up
// to blockSteps steps, and room for the bounds of every group of the span.
// The engine's goroutine and each helper hold one.
type blockBuf struct {
	parts []float64
	cuts  []int
}

// fit is the cold path that gives b room for a block of a span of n groups
// and total steps: the bounds of every group, and readings for one block,
// or for the whole span when it is shorter than a block.
func (b *blockBuf) fit(n, total int) {
	if len(b.cuts) <= n {
		b.cuts = make([]int, n+1)
	}
	if steps := min(blockSteps, total); len(b.parts) < steps {
		b.parts = make([]float64, steps)
	}
}

// open is spanPass.state's flag for a span helpers may attach to.
const open = 1 << 32

// run issues block k through the photonic core and reads it out into the
// span's stretch of the burst.
func (p *spanPass) run(k int, buf *blockBuf) {
	lo := k * blockSteps
	hi := min(lo+blockSteps, len(p.out))
	parts := buf.parts[:hi-lo]
	// g0 is the group holding step lo: the last to start at or before it.
	g0, _ := slices.BinarySearch(p.starts, lo+1)
	g0--
	// The block's operands run from first to last; cuts holds its groups'
	// bounds within them, the first and last group cut at the block's
	// edges.
	first := p.bounds[g0] + (lo-p.starts[g0])*p.lanes
	cuts, c := buf.cuts[:len(p.bounds)], 1
	cuts[0] = 0
	for g := g0; p.starts[g] < hi; g++ {
		end := min(p.starts[g+1], hi)
		cuts[c] = min(p.bounds[g]+(end-p.starts[g])*p.lanes, p.bounds[g+1]) - first
		c++
	}
	cuts = cuts[:c]
	a, b := p.a[first:first+cuts[c-1]], p.b[first:first+cuts[c-1]]
	if !p.fast {
		p.step(lo, hi, g0, parts, a, b, cuts)
		converter.QuantizeInto(p.out[lo:hi], parts)
		return
	}
	p.core.ReadingsGroupsInto(parts, a, b, cuts)
	// Each row's part of the block is one readout at its own position in
	// its own stream.
	for r, s := g0/p.groups, lo; s < hi; r++ {
		rs, re := p.starts[r*p.groups], p.starts[(r+1)*p.groups]
		if end := min(re, hi); end > s {
			p.core.ReadoutAt(p.out[s:end], parts[s-lo:end-lo], noiseKey(p.burst, p.row0+r), uint64(s-rs))
			s = end
		}
	}
}

// step is run's stale-core pass: each of the block's groups, cut as in cuts,
// goes through Step from the cursor, sought first to the group's row and
// position.
func (p *spanPass) step(lo, hi, g0 int, parts []float64, a, b []fixed.Code, cuts []int) {
	for i := 1; i < len(cuts); i++ {
		g := g0 + i - 1
		s, end := max(lo, p.starts[g]), min(hi, p.starts[g+1])
		if s == end {
			continue
		}
		r := g / p.groups
		p.core.SeekNoiseAt(noiseKey(p.burst, p.row0+r), uint64(s-p.starts[r*p.groups]))
		p.core.DotPartialsInto(parts[s-lo:end-lo], a[cuts[i-1]:cuts[i]], b[cuts[i-1]:cuts[i]])
	}
}

// issue runs every block of the span, offering a wide one to the helpers.
func (p *spanPass) issue(buf *blockBuf) {
	if p.fast && len(p.out) >= fanOutSteps {
		if procs := runtime.GOMAXPROCS(0); procs > 1 {
			p.fanOut(buf, min(procs-1, p.blocks-1))
			return
		}
	}
	for k := 0; k < p.blocks; k++ {
		p.run(k, buf)
	}
}

// fanOut opens the span, offers it to up to helpers parked helpers, claims
// blocks alongside them, then closes it and waits out the blocks they hold.
// The wait spins, yielding the P, rather than parking: most spans wait under
// a microsecond, a parked caller wakes tens of microseconds after it is
// readied, and parking measured no better on the spans that wait
// milliseconds for a preempted helper (DESIGN.md §11). A helper that has not
// attached by then is not waited for; it finds the span closed.
func (p *spanPass) fanOut(buf *blockBuf, helpers int) {
	p.next.Store(0)
	p.state.Add(open)
	defer p.close()
	offer(p, helpers)
	p.claim(buf)
}

// close stops helpers attaching to the span and returns once every attached
// helper has detached, so the span's storage is the caller's again — on a
// panic in the caller's own block too.
func (p *spanPass) close() {
	p.state.Add(-open)
	for p.state.Load() != 0 {
		runtime.Gosched()
	}
}

// claim runs unclaimed blocks until none are left.
func (p *spanPass) claim(buf *blockBuf) {
	for {
		k := int(p.next.Add(1)) - 1
		if k >= p.blocks {
			return
		}
		p.run(k, buf)
	}
}

// help is a helper's turn at a span it was offered: attach if the span is
// still open, grow its block storage to the span if need be, claim blocks,
// detach.
func (p *spanPass) help(buf *blockBuf) {
	for {
		s := p.state.Load()
		if s&open == 0 {
			return
		}
		if p.state.CompareAndSwap(s, s+1) {
			break
		}
	}
	buf.fit(len(p.bounds)-1, len(p.out))
	p.claim(buf)
	p.state.Add(-1)
}

// The helpers are shared by every engine in the process, since what bounds
// them is the CPUs, not the engines: at most GOMAXPROCS−1, started as wide
// spans first ask for them and parked on helperSpans between spans.
// helperSpans is unbuffered, so an offer lands only in a helper already
// parked on it; a busy pool leaves the caller to run the span alone and can
// never hold it up.
var (
	helperSpans    = make(chan *spanPass)
	helpersMu      sync.Mutex
	helpersRunning atomic.Int32
)

// offer hands p to up to n parked helpers, starting helpers up to n first.
// Helpers started here are not parked yet, so the span that starts them runs
// without them.
//
// Once an offer has landed the caller yields its P. A helper readied by a
// channel send waits in the sender's P's next-to-run slot, and the runtime
// lets an idle P take it from there only after a pause: a helper so readied
// attached ≈ 70 µs after the offer on a 2-vCPU KVM guest. Yielding runs it
// here at once (≈ 5 µs) while the caller waits in the global run queue for
// the P the runtime is waking; the span's blocks are claimed in the meantime.
func offer(p *spanPass, n int) {
	if int(helpersRunning.Load()) < n {
		startHelpers(n)
	}
	landed := false
offers:
	for ; n > 0; n-- {
		select {
		case helperSpans <- p:
			landed = true
		default:
			break offers
		}
	}
	if landed {
		runtime.Gosched()
	}
}

// startHelpers starts helpers until n are running.
func startHelpers(n int) {
	helpersMu.Lock()
	defer helpersMu.Unlock()
	for int(helpersRunning.Load()) < n {
		helpersRunning.Add(1)
		go helper()
	}
}

// helper takes spans offered on helperSpans for the life of the process.
func helper() {
	buf := &blockBuf{parts: make([]float64, blockSteps)}
	for p := range helperSpans {
		p.help(buf)
	}
}
