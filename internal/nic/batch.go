package nic

import (
	"sync/atomic"
	"time"
)

// Cross-query batching happens at dequeue (Admitter.PopBatch, admit.go):
// this file holds its knobs, flush-timer seam and accounting.

// DefaultBatchDelay is the max-delay flush default when batching is enabled
// without an explicit delay: long enough to coalesce a concurrent burst,
// short enough to stay invisible next to a multi-layer inference.
const DefaultBatchDelay = 200 * time.Microsecond

// BatchConfig sets the flush knobs for cross-query batching.
type BatchConfig struct {
	// MaxBatch is the flush-immediately batch size per model. Values <= 1
	// disable batching (every pop takes one query).
	MaxBatch int
	// MaxDelay bounds how long the oldest query of a partial batch may wait
	// for companions before the batch may leave anyway. Values <= 0 let a
	// partial batch leave at once; the NIC substitutes DefaultBatchDelay
	// when enabling batching with no explicit delay.
	MaxDelay time.Duration
}

// Enabled reports whether the configuration actually batches.
func (c BatchConfig) Enabled() bool { return c.MaxBatch > 1 }

// BatchTimer is the max-delay flush timer seam, which *time.Timer
// satisfies; tests inject a hand-fired fake, which keeps the flush tests
// clockless. Stop is best-effort: a fire already
// in flight is made harmless by the Admitter's generation check.
type BatchTimer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// TimerFactory builds one flush timer per model queue; fire is the callback
// the timer must invoke (on any goroutine) when the delay elapses.
type TimerFactory func(fire func()) BatchTimer

// AfterFuncTimer is the production TimerFactory: a time.AfterFunc timer,
// stopped until its first Reset.
func AfterFuncTimer(fire func()) BatchTimer {
	t := time.AfterFunc(time.Hour, fire)
	t.Stop()
	return t
}

// BatchStats is a snapshot of the batch pop's accounting.
type BatchStats struct {
	// Queries counts queries popped in batches.
	Queries uint64
	// Flushes counts popped batches; the per-cause counters partition it:
	// a full batch, a partial one whose MaxDelay timer fired, and a partial
	// one a drain let go (a Flush, or admission closing).
	Flushes      uint64
	FullFlushes  uint64
	TimerFlushes uint64
	DrainFlushes uint64
	// MaxBatch is the largest batch popped so far.
	MaxBatch uint64
}

// Why a model's partial batch may leave before it is full (admitQueue.due).
const (
	notDue uint8 = iota
	dueTimer
	dueDrain
)

// BatchCounters accumulates the batch pop's accounting across admitters, so
// one front door's stats outlive its Serve calls. The zero value is ready;
// it is safe for concurrent use.
type BatchCounters struct {
	queries, flushes, full, timer, drain, max atomic.Uint64
}

// count records one popped batch of k queries; full says it was full, and
// cause why a partial one left.
func (c *BatchCounters) count(k int, full bool, cause uint8) {
	c.queries.Add(uint64(k))
	c.flushes.Add(1)
	switch {
	case full:
		c.full.Add(1)
	case cause == dueTimer:
		c.timer.Add(1)
	default:
		c.drain.Add(1)
	}
	for {
		cur := c.max.Load()
		if uint64(k) <= cur || c.max.CompareAndSwap(cur, uint64(k)) {
			return
		}
	}
}

// Stats returns a snapshot of the accounting.
func (c *BatchCounters) Stats() BatchStats {
	return BatchStats{
		Queries:      c.queries.Load(),
		Flushes:      c.flushes.Load(),
		FullFlushes:  c.full.Load(),
		TimerFlushes: c.timer.Load(),
		DrainFlushes: c.drain.Load(),
		MaxBatch:     c.max.Load(),
	}
}
