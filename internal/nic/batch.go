package nic

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// Cross-query batching: per-model queues ahead of the datapath coalesce
// concurrent queries for the same model into one matrix pass per shard. The
// Batcher owns the queueing policy only — what a batch *does* is the exec
// callback the NIC supplies — so the flush machinery (max-batch, max-delay,
// drain) is testable with an injected timer and no analog hardware at all.
//
// A queued query blocks its caller (Do) until its batch executes; execution
// happens on whichever goroutine triggered the flush: the pusher that
// filled the batch, the delay timer for a partial batch, or the drainer.
// Every item points at its own caller's response, so fan-out preserves
// per-request verdicts whatever the batch outcome. Each caller also gets a
// share of its batch back (BatchShare), so the callers that send the
// batch's responses can tell which of them sends last.

// DefaultBatchDelay is the max-delay flush default when batching is enabled
// without an explicit delay: long enough to coalesce a concurrent burst,
// short enough to stay invisible next to a multi-layer inference.
const DefaultBatchDelay = 200 * time.Microsecond

// BatchConfig sets the flush knobs for cross-query batching.
type BatchConfig struct {
	// MaxBatch is the flush-immediately batch size per model. Values <= 1
	// disable batching (every query runs inline as a batch of one).
	MaxBatch int
	// MaxDelay bounds how long the first query of a partial batch may wait
	// for companions before the batch flushes anyway. Values <= 0 flush on
	// every push (batching effectively off); the NIC substitutes
	// DefaultBatchDelay when enabling batching with no explicit delay.
	MaxDelay time.Duration
}

// Enabled reports whether the configuration actually batches.
func (c BatchConfig) Enabled() bool { return c.MaxBatch > 1 }

// BatchItem is one query and its response slot. The items a Batcher queues
// are pooled: it owns their lifecycle, and the exec callback must not retain
// them past its return.
type BatchItem struct {
	RequestID uint32
	Input     []fixed.Code

	// Resp is the caller's response, which the exec callback fills — its
	// Probs into the buffer the caller left there — and Err the error
	// beside it: one verdict per item.
	Resp *Response
	Err  error

	// done carries the batch-executed signal back to the blocked Do call.
	// Capacity 1: the executor never blocks on a waiter.
	done chan struct{}
	// share is the caller's share of its executed batch, set before done.
	share BatchShare
	// next links the item free list.
	next *BatchItem
}

// BatchTimer is the max-delay flush timer seam. The production timer is
// time.AfterFunc underneath; tests inject a hand-fired fake, which keeps
// the flush-correctness tests clockless (clockinject stays clean).
type BatchTimer interface {
	// Reset (re)arms the timer to fire once after d.
	Reset(d time.Duration)
	// Stop cancels a pending fire if it has not happened yet. Stop is
	// best-effort: a fire already in flight is made harmless by the
	// Batcher's generation check, not by Stop.
	Stop()
}

// TimerFactory builds one flush timer per model queue; fire is the callback
// the timer must invoke (on any goroutine) when the delay elapses.
type TimerFactory func(fire func()) BatchTimer

// afterFuncTimer is the production BatchTimer.
type afterFuncTimer struct {
	t    *time.Timer
	fire func()
}

func (a *afterFuncTimer) Reset(d time.Duration) {
	if a.t == nil {
		a.t = time.AfterFunc(d, a.fire)
		return
	}
	a.t.Reset(d)
}

func (a *afterFuncTimer) Stop() {
	if a.t != nil {
		a.t.Stop()
	}
}

// batchBuf is one batch's item array and the release countdown of the
// batch it last carried. The two recycle together, so counting a batch's
// releases costs no allocation, and a countdown its callers never finish
// is simply overwritten by the buffer's next batch.
type batchBuf struct {
	items []*BatchItem
	// left packs the generation of the batch the buffer last carried (high
	// 32 bits) with how many of its shares are still out (low 32 bits).
	left atomic.Uint64
}

// arm starts a new generation counting k shares and returns the share
// every caller of the batch holds.
//
//lint:hotpath
func (bb *batchBuf) arm(k int) BatchShare {
	gen := uint32(bb.left.Load()>>32) + 1
	bb.left.Store(uint64(gen)<<32 | uint64(k))
	return BatchShare{buf: bb, gen: gen}
}

// BatchShare is one caller's share of an executed batch. The callers that
// send a batch's responses each queue theirs and then release their share;
// the one whose release is the last flushes every response at once, so a
// matrix pass's answers leave together. The zero share, a query that ran
// alone, belongs to no batch.
type BatchShare struct {
	buf *batchBuf
	gen uint32
}

// Batched reports whether the share belongs to an executed batch.
func (s BatchShare) Batched() bool { return s.buf != nil }

// Release drops the share, once per caller, and reports whether the caller
// must now flush for the whole batch: its release was the last, or the
// batch can no longer be counted because its buffer has since carried
// another. The zero share reports false.
//
//lint:hotpath
func (s BatchShare) Release() bool {
	if s.buf == nil {
		return false
	}
	for {
		w := s.buf.left.Load()
		if uint32(w>>32) != s.gen || uint32(w) == 0 {
			return true
		}
		if s.buf.left.CompareAndSwap(w, w-1) {
			return uint32(w) == 1
		}
	}
}

// modelBatch is one model's pending queue.
type modelBatch struct {
	// buf is the preallocated item buffer (len(buf.items) == MaxBatch); n
	// is the fill level. On flush the whole buffer is handed to the
	// executor and a spare swapped in, so a concurrent executor never
	// shares an array with new pushes.
	buf *batchBuf
	n   int
	// gen counts flushes; armed records the generation the delay timer was
	// armed for. A timer fire only flushes when armed == gen, which makes
	// the max-delay flush exactly-once per partial batch: any full or
	// drain flush in between bumps gen and turns the pending fire into a
	// no-op.
	gen, armed uint64
	timer      BatchTimer
}

// BatchStats is a snapshot of the Batcher's flush accounting.
type BatchStats struct {
	// Queries counts queries that went through the batch path.
	Queries uint64
	// Flushes counts executed batches; the per-cause counters partition it.
	Flushes      uint64
	FullFlushes  uint64
	TimerFlushes uint64
	DrainFlushes uint64
	// MaxBatch is the largest batch executed so far.
	MaxBatch uint64
}

// Batcher coalesces same-model queries into batches and hands them to exec.
// All methods are safe for concurrent use.
type Batcher struct {
	cfg      BatchConfig
	exec     func(modelID uint16, items []*BatchItem)
	newTimer TimerFactory

	mu     sync.Mutex
	queues map[uint16]*modelBatch
	// free is the BatchItem free list; spares holds flushed batch buffers
	// returned by executors. Both make the steady-state queue path
	// allocation-free.
	free   *BatchItem
	spares []*batchBuf

	queries      atomic.Uint64
	flushes      atomic.Uint64
	fullFlushes  atomic.Uint64
	timerFlushes atomic.Uint64
	drainFlushes atomic.Uint64
	maxBatch     atomic.Uint64
}

// NewBatcher builds a Batcher with the production delay timer.
func NewBatcher(cfg BatchConfig, exec func(modelID uint16, items []*BatchItem)) *Batcher {
	return NewBatcherWithTimer(cfg, exec, func(fire func()) BatchTimer {
		return &afterFuncTimer{fire: fire}
	})
}

// NewBatcherWithTimer is NewBatcher with an injected flush-timer factory —
// the clockless test seam.
func NewBatcherWithTimer(cfg BatchConfig, exec func(modelID uint16, items []*BatchItem), factory TimerFactory) *Batcher {
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	return &Batcher{
		cfg:      cfg,
		exec:     exec,
		newTimer: factory,
		queues:   make(map[uint16]*modelBatch),
	}
}

// Config returns the batcher's resolved configuration.
func (b *Batcher) Config() BatchConfig { return b.cfg }

// Stats returns a snapshot of the flush accounting.
func (b *Batcher) Stats() BatchStats {
	return BatchStats{
		Queries:      b.queries.Load(),
		Flushes:      b.flushes.Load(),
		FullFlushes:  b.fullFlushes.Load(),
		TimerFlushes: b.timerFlushes.Load(),
		DrainFlushes: b.drainFlushes.Load(),
		MaxBatch:     b.maxBatch.Load(),
	}
}

// Pending returns the queued-but-unflushed query count across all models.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, mb := range b.queues {
		n += mb.n
	}
	return n
}

// Do queues one query and blocks until its batch has executed, with this
// query's verdict written into resp and its error returned beside the
// caller's share of the batch. resp is the caller's: the exec callback
// fills it in place, reusing the array of the Probs slice it holds, and
// nothing references it once Do returns. The query joins its model's
// pending batch; the batch flushes when it reaches MaxBatch (executed on
// this caller), when the MaxDelay timer fires (executed on the timer
// goroutine), or when FlushAll drains it. A caller that ignores its share
// costs nothing: the batch's buffer recounts on its next use.
func (b *Batcher) Do(modelID uint16, requestID uint32, input []fixed.Code, resp *Response) (BatchShare, error) {
	b.queries.Add(1)
	b.mu.Lock()
	it := b.getItemLocked()
	it.RequestID = requestID
	it.Input = input
	it.Resp = resp
	it.Err = nil
	mb := b.queues[modelID]
	if mb == nil {
		mb = b.newModelBatchLocked(modelID)
	}
	full := b.push(mb, it)
	var out *batchBuf
	if full {
		out = b.takeLocked(mb)
	} else if mb.n == 1 {
		// First query of a fresh batch: arm the max-delay flush for this
		// generation.
		mb.armed = mb.gen
		mb.timer.Reset(b.cfg.MaxDelay)
	}
	b.mu.Unlock()
	if full {
		b.fullFlushes.Add(1)
		b.runBatch(modelID, out)
	}
	<-it.done
	share, err := it.share, it.Err
	b.mu.Lock()
	b.putItemLocked(it)
	b.mu.Unlock()
	return share, err
}

// FlushAll drains every model's pending batch, executing each on the
// calling goroutine. NIC.Drain uses it so a drained NIC has no query parked
// behind a delay timer.
func (b *Batcher) FlushAll() {
	for {
		b.mu.Lock()
		var modelID uint16
		var out *batchBuf
		for id, mb := range b.queues {
			if mb.n > 0 {
				modelID = id
				out = b.takeLocked(mb)
				break
			}
		}
		b.mu.Unlock()
		if out == nil {
			return
		}
		b.drainFlushes.Add(1)
		b.runBatch(modelID, out)
	}
}

// push appends one item to a model's pending batch and reports whether the
// batch must flush now (full, or delay-less config). Hot per query: the
// buffer is preallocated, so the body is indexed writes only.
//
//lint:hotpath
func (b *Batcher) push(mb *modelBatch, it *BatchItem) bool {
	mb.buf.items[mb.n] = it
	mb.n++
	return mb.n >= b.cfg.MaxBatch || b.cfg.MaxDelay <= 0
}

// takeLocked removes and returns a model's pending batch, swapping a spare
// buffer in so the executor owns the returned buffer exclusively. Bumping
// gen invalidates any armed delay timer for the taken batch.
//
//lint:hotpath
func (b *Batcher) takeLocked(mb *modelBatch) *batchBuf {
	out := mb.buf
	out.items = out.items[:mb.n]
	mb.buf = b.spareLocked()
	mb.n = 0
	mb.gen++
	mb.timer.Stop()
	return out
}

// runBatch executes one taken batch, fans the signal and a share of the
// batch out to every blocked caller, and recycles the batch buffer.
func (b *Batcher) runBatch(modelID uint16, buf *batchBuf) {
	out := buf.items
	b.flushes.Add(1)
	for {
		cur := b.maxBatch.Load()
		if uint64(len(out)) <= cur || b.maxBatch.CompareAndSwap(cur, uint64(len(out))) {
			break
		}
	}
	b.exec(modelID, out)
	share := buf.arm(len(out))
	for _, it := range out {
		it.share = share
		it.done <- struct{}{}
	}
	b.mu.Lock()
	b.releaseLocked(buf)
	b.mu.Unlock()
}

// timerFire is each model timer's callback: flush the pending batch iff the
// armed generation is still live (exactly-once per partial batch).
func (b *Batcher) timerFire(modelID uint16) {
	b.mu.Lock()
	mb := b.queues[modelID]
	if mb == nil || mb.n == 0 || mb.armed != mb.gen {
		b.mu.Unlock()
		return
	}
	out := b.takeLocked(mb)
	b.mu.Unlock()
	b.timerFlushes.Add(1)
	b.runBatch(modelID, out)
}

// newModelBatchLocked is the cold per-model setup: buffer and flush timer
// are created once and reused for the queue's lifetime.
func (b *Batcher) newModelBatchLocked(modelID uint16) *modelBatch {
	mb := &modelBatch{buf: b.spareLocked()}
	mb.timer = b.newTimer(func() { b.timerFire(modelID) })
	b.queues[modelID] = mb
	return mb
}

// getItemLocked pops a pooled item, or cold-allocates one.
func (b *Batcher) getItemLocked() *BatchItem {
	if it := b.free; it != nil {
		b.free = it.next
		it.next = nil
		return it
	}
	return &BatchItem{done: make(chan struct{}, 1)}
}

// putItemLocked returns a completed item to the free list.
func (b *Batcher) putItemLocked(it *BatchItem) {
	it.Input = nil
	it.Resp = nil
	it.Err = nil
	it.share = BatchShare{}
	it.next = b.free
	b.free = it
}

// spareLocked pops a recycled batch buffer, or cold-allocates one.
func (b *Batcher) spareLocked() *batchBuf {
	if k := len(b.spares); k > 0 {
		s := b.spares[k-1]
		b.spares[k-1] = nil
		b.spares = b.spares[:k-1]
		s.items = s.items[:cap(s.items)]
		return s
	}
	return &batchBuf{items: make([]*BatchItem, b.cfg.MaxBatch)}
}

// releaseLocked recycles an executed batch buffer, dropping item
// references so pooled items are not pinned by its array.
func (b *Batcher) releaseLocked(buf *batchBuf) {
	clear(buf.items)
	b.spares = append(b.spares, buf)
}
