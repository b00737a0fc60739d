package datapath

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// A row's photonic pass and digitization run as blocks of blockSteps steps.
// Block k streams its lane-aligned operand slices through the core into
// noiseless readings, then reads them out in one pass that adds the noise
// drawn at its own positions in the row's keyed stream — step s of the row
// draws draw s of noiseKey(burst, row) — and writes the ADC codes into its own
// span of the layer's burst, which the caller has already opened and
// reserved.
// No block reads another's output and every draw is named by its position,
// so the burst's bytes are the same whichever goroutine ran which block and
// in what order.
//
// A row of fanOutSteps or more steps on a core whose LUTs hold, with more
// than one P, is offered to the process's helpers: the caller and whichever
// helpers take the offer claim blocks from an atomic cursor until none are
// left. Every other row — and every row of a layer the engine runs serially
// — is the same blocks run inline by the caller, with no atomic and no
// channel operation. A stale core runs its blocks inline through Step,
// seeking the cursor to each block's position first.

const (
	// blockSteps is the unit of work: 16 KB of partials, so a block's
	// readings are still in L1 when it reads them out, and ≈ 16 µs of
	// work at ≈ 8 ns a step (readings, noise and ADC codes of a two-lane
	// core, on a 2-vCPU KVM guest): how long the caller waits for a
	// helper's last block, unless the helper is preempted.
	blockSteps = 2048
	// fanOutSteps is the smallest row offered to helpers. A handoff costs
	// the caller its P until the runtime has woken another (offer), and up
	// to a block's wait at the end of the row; on a 2-vCPU KVM guest a
	// 4096-step row ran ≈ 15 % slower fanned out and an 8192-step row
	// ≈ 15–20 % faster. Rows of the MLP workloads peak at a few hundred
	// steps and never reach it.
	fanOutSteps = 4 * blockSteps
)

// rowPass is one row's blocks. The caller fills the fields below the atomics
// before it opens the row to helpers and leaves them alone until every
// attached helper has detached.
type rowPass struct {
	// next is the next unclaimed block; state holds open while helpers
	// may attach, plus one per attached helper.
	next  atomic.Int64
	state atomic.Int64

	core *photonic.Core
	key  uint64
	// fast records that the core's LUTs held when the layer's burst
	// opened.
	fast  bool
	lanes int
	// a and b are the row's sign-partitioned operands, group g spanning
	// [bounds[g], bounds[g+1]); starts[g] is the row step group g begins
	// at, and its last entry the row's step count.
	a, b           []fixed.Code
	bounds, starts []int
	// out is the row's span of the layer's burst, one sample a step.
	out    []fixed.Code
	blocks int
}

// open is rowPass.state's flag for a row helpers may attach to.
const open = 1 << 32

// run issues block k through the photonic core and reads it out into the
// row's span of the burst, using parts (blockSteps long at least) for the
// readings.
func (p *rowPass) run(k int, parts []float64) {
	lo := k * blockSteps
	hi := min(lo+blockSteps, len(p.out))
	parts = parts[:hi-lo]
	if !p.fast {
		p.core.SeekNoiseAt(p.key, uint64(lo))
	}
	g := 0
	for p.starts[g+1] <= lo {
		g++
	}
	for s := lo; s < hi; g++ {
		end := min(p.starts[g+1], hi)
		first := p.bounds[g] + (s-p.starts[g])*p.lanes
		last := min(p.bounds[g]+(end-p.starts[g])*p.lanes, p.bounds[g+1])
		if p.fast {
			p.core.ReadingsInto(parts[s-lo:end-lo], p.a[first:last], p.b[first:last])
		} else {
			p.core.DotPartialsInto(parts[s-lo:end-lo], p.a[first:last], p.b[first:last])
		}
		s = end
	}
	if p.fast {
		// The groups' steps are the block's consecutive positions, so one
		// readout over the block draws what one a group would.
		p.core.ReadoutAt(p.out[lo:hi], parts, p.key, uint64(lo))
	} else {
		converter.QuantizeInto(p.out[lo:hi], parts)
	}
}

// issue runs every block of the row, offering a wide one to the helpers.
func (p *rowPass) issue(parts []float64) {
	if p.fast && len(p.out) >= fanOutSteps {
		if procs := runtime.GOMAXPROCS(0); procs > 1 {
			p.fanOut(parts, min(procs-1, p.blocks-1))
			return
		}
	}
	for k := 0; k < p.blocks; k++ {
		p.run(k, parts)
	}
}

// fanOut opens the row, offers it to up to helpers parked helpers, claims
// blocks alongside them, then closes it and waits out the blocks they hold.
// The wait spins, yielding the P, rather than parking: most rows wait under
// a microsecond, a parked caller wakes tens of microseconds after it is
// readied, and parking measured no better on the rows that wait
// milliseconds for a preempted helper (DESIGN.md §11). A helper that has not
// attached by then is not waited for; it finds the row closed.
func (p *rowPass) fanOut(parts []float64, helpers int) {
	p.next.Store(0)
	p.state.Add(open)
	defer p.close()
	offer(p, helpers)
	p.claim(parts)
}

// close stops helpers attaching to the row and returns once every attached
// helper has detached, so the row's storage is the caller's again — on a
// panic in the caller's own block too.
func (p *rowPass) close() {
	p.state.Add(-open)
	for p.state.Load() != 0 {
		runtime.Gosched()
	}
}

// claim runs unclaimed blocks until none are left.
func (p *rowPass) claim(parts []float64) {
	for {
		k := int(p.next.Add(1)) - 1
		if k >= p.blocks {
			return
		}
		p.run(k, parts)
	}
}

// help is a helper's turn at a row it was offered: attach if the row is still
// open, claim blocks, detach.
func (p *rowPass) help(parts []float64) {
	for {
		s := p.state.Load()
		if s&open == 0 {
			return
		}
		if p.state.CompareAndSwap(s, s+1) {
			break
		}
	}
	p.claim(parts)
	p.state.Add(-1)
}

// The helpers are shared by every engine in the process, since what bounds
// them is the CPUs, not the engines: at most GOMAXPROCS−1, started as wide
// rows first ask for them and parked on helperRows between rows. helperRows
// is unbuffered, so an offer lands only in a helper already parked on it; a
// busy pool leaves the caller to run the row alone and can never hold it up.
var (
	helperRows     = make(chan *rowPass)
	helpersMu      sync.Mutex
	helpersRunning atomic.Int32
)

// offer hands p to up to n parked helpers, starting helpers up to n first.
// Helpers started here are not parked yet, so the row that starts them runs
// without them.
//
// Once an offer has landed the caller yields its P. A helper readied by a
// channel send waits in the sender's P's next-to-run slot, and the runtime
// lets an idle P take it from there only after a pause: a helper so readied
// attached ≈ 70 µs after the offer on a 2-vCPU KVM guest. Yielding runs it
// here at once (≈ 5 µs) while the caller waits in the global run queue for
// the P the runtime is waking; the row's blocks are claimed in the meantime.
func offer(p *rowPass, n int) {
	if int(helpersRunning.Load()) < n {
		startHelpers(n)
	}
	landed := false
offers:
	for ; n > 0; n-- {
		select {
		case helperRows <- p:
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

// helper takes rows offered on helperRows for the life of the process.
func helper() {
	parts := make([]float64, blockSteps)
	for p := range helperRows {
		p.help(parts)
	}
}
