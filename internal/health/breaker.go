// Package health is the reusable circuit-breaker core of Lightning's
// self-healing: a windowed error score, a three-state breaker (healthy →
// quarantined → half-open probation → healthy), and periodic known-answer
// probe cadence. PR 4 grew this machinery inside the NIC for photonic-core
// shards; the cluster plane needs the identical state machine per *node*, so
// the bookkeeping lives here and both layers drive it. The breaker is policy
// only — it never touches hardware or sockets. Callers observe outcomes,
// react to the verdicts (trip the breaker, run a probe, note a readmission),
// and own whatever recovery actually heals the resource (a Relock for a
// shard, a re-plan for a cluster node).
package health

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// State is a breaker's position.
type State int32

const (
	// Healthy resources receive traffic and feed the sliding window.
	Healthy State = iota
	// Quarantined resources receive no traffic while recovery runs; a
	// resource whose recovery is exhausted stays here.
	Quarantined
	// Probation resources are half-open: they take live traffic again, but
	// one bad outcome re-quarantines them and a run of clean ones readmits.
	Probation
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Quarantined:
		return "quarantined"
	case Probation:
		return "probation"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Verdict is what an Observe call asks of the caller. The breaker never
// trips itself on an outcome: the caller calls Trip (and spawns its
// recovery) so that the spawn-once guarantee sits next to whatever resource
// the recovery needs.
type Verdict int

const (
	// VerdictNone: nothing to do.
	VerdictNone Verdict = iota
	// VerdictTrip: the windowed score crossed the threshold (or a probation
	// trial failed) — call Trip and start recovery.
	VerdictTrip
	// VerdictReadmit: the probation run completed; the breaker is Healthy
	// again. Informational — callers may log or re-plan.
	VerdictReadmit
	// VerdictProbeDue: the periodic known-answer probe cadence elapsed — run
	// the probe, and Trip on failure.
	VerdictProbeDue
)

// Config parameterizes a Breaker. The zero value is not usable; callers
// resolve their own defaults (the NIC and the cluster coordinator have
// different ones).
type Config struct {
	// Window is the sliding outcome window length; the score is the error
	// rate over it, and trips only fire once the window has filled.
	Window int
	// Threshold is the windowed error rate at or above which Observe returns
	// VerdictTrip.
	Threshold float64
	// ProbeEvery asks for a known-answer probe every ProbeEvery healthy
	// outcomes (0 disables the cadence).
	ProbeEvery int
	// Trials is how many consecutive clean probation outcomes readmit a
	// half-open resource.
	Trials int
}

// Breaker is one resource's health state machine. All methods are safe for
// concurrent use: outcomes arrive from every serving goroutine at once.
type Breaker struct {
	// state is atomic so dispatch paths read it without taking any lock.
	state atomic.Int32

	// mu guards the window and probation bookkeeping below. Callers' serve
	// locks are never held around Breaker calls, so scoring never contends
	// with a query occupying the resource.
	mu     sync.Mutex
	window []bool
	wpos   int
	wcount int
	werrs  int
	// sinceProbe counts healthy outcomes since the last periodic probe.
	sinceProbe int
	// trialsLeft is the remaining clean probation outcomes before
	// readmission.
	trialsLeft int

	cfg Config

	quarantines  atomic.Uint64
	readmissions atomic.Uint64
}

// NewBreaker builds a healthy breaker. Window and Trials are floored at 1.
func NewBreaker(cfg Config) *Breaker {
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	if cfg.Trials < 1 {
		cfg.Trials = 1
	}
	return &Breaker{window: make([]bool, cfg.Window), cfg: cfg}
}

// State returns the breaker's position.
func (b *Breaker) State() State { return State(b.state.Load()) }

// Available reports whether the resource may receive traffic (healthy or
// half-open; probation traffic is what completes the trials).
func (b *Breaker) Available() bool { return b.State() != Quarantined }

// Quarantines counts breaker trips.
func (b *Breaker) Quarantines() uint64 { return b.quarantines.Load() }

// Readmissions counts completed probation runs.
func (b *Breaker) Readmissions() uint64 { return b.readmissions.Load() }

// Score returns the current sliding-window error rate in [0, 1].
func (b *Breaker) Score() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.scoreLocked()
}

func (b *Breaker) scoreLocked() float64 {
	if b.wcount == 0 {
		return 0
	}
	return float64(b.werrs) / float64(b.wcount)
}

// resetLocked clears the sliding window and probe cadence — a fresh start
// after quarantine or readmission. Caller holds mu.
func (b *Breaker) resetLocked() {
	b.wcount, b.wpos, b.werrs, b.sinceProbe = 0, 0, 0, 0
}

// pushLocked records one outcome in the sliding window. Caller holds mu.
func (b *Breaker) pushLocked(bad bool) {
	if b.wcount == len(b.window) {
		if b.window[b.wpos] {
			b.werrs--
		}
	} else {
		b.wcount++
	}
	b.window[b.wpos] = bad
	if bad {
		b.werrs++
	}
	b.wpos = (b.wpos + 1) % len(b.window)
}

// Observe records one served outcome and returns what the caller should do.
// Outcomes against a quarantined breaker are dropped: they were decided by
// the pre-quarantine state of the resource.
//
// Probation readmission is exact-once under concurrency: when several clean
// verdicts race on the last trial, exactly one caller sees VerdictReadmit
// and the readmission counter moves by one — the rest see VerdictNone.
// (The pre-extraction shard code decremented without a floor, so two racing
// verdicts could both observe trialsLeft <= 0 and double-count the
// readmission; the floor here is the fix.)
func (b *Breaker) Observe(bad bool) Verdict {
	switch b.State() {
	case Quarantined:
		return VerdictNone
	case Probation:
		if bad {
			return VerdictTrip
		}
		b.mu.Lock()
		if b.trialsLeft <= 0 {
			// A concurrent clean verdict already completed the run, or a
			// Trip ended it — this outcome rides along, it must not
			// re-readmit.
			b.mu.Unlock()
			return VerdictNone
		}
		b.trialsLeft--
		// Readmit by a CAS from Probation under mu: a Trip that landed since
		// this outcome read the state keeps its quarantine, and StartProbation
		// publishes Probation under mu, so this cannot readmit a later run.
		readmit := b.trialsLeft == 0 && b.state.CompareAndSwap(int32(Probation), int32(Healthy))
		if readmit {
			b.resetLocked()
		}
		b.mu.Unlock()
		if readmit {
			b.readmissions.Add(1)
			return VerdictReadmit
		}
		return VerdictNone
	default: // Healthy
		b.mu.Lock()
		b.pushLocked(bad)
		full := b.wcount == len(b.window)
		score := b.scoreLocked()
		probeDue := false
		if b.cfg.ProbeEvery > 0 {
			b.sinceProbe++
			if b.sinceProbe >= b.cfg.ProbeEvery {
				b.sinceProbe = 0
				probeDue = true
			}
		}
		b.mu.Unlock()
		if full && score >= b.cfg.Threshold {
			return VerdictTrip
		}
		if probeDue {
			return VerdictProbeDue
		}
		return VerdictNone
	}
}

// Trip opens the breaker. Safe to call from any state; only the transition
// out of healthy/probation returns true, so exactly one of any number of
// concurrent trippers spawns the caller's recovery.
func (b *Breaker) Trip() bool {
	if !b.state.CompareAndSwap(int32(Healthy), int32(Quarantined)) &&
		!b.state.CompareAndSwap(int32(Probation), int32(Quarantined)) {
		return false
	}
	b.quarantines.Add(1)
	b.mu.Lock()
	b.resetLocked()
	b.mu.Unlock()
	return true
}

// StartProbation reopens a quarantined breaker half-open: recovery succeeded
// and verified, and the next Trials clean live outcomes readmit the
// resource (one bad outcome re-quarantines it).
func (b *Breaker) StartProbation() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trialsLeft = b.cfg.Trials
	b.resetLocked()
	b.state.Store(int32(Probation))
}
