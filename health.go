package lightning

// Per-shard health scoring and self-healing: the serving-layer analogue of
// Appendix B's bias-locking loop. Each photonic core shard carries a
// windowed error score fed by its served queries and (optionally) periodic
// known-answer probe vectors; a shard whose score crosses the threshold, or
// whose probe drifts outside tolerance, trips a circuit breaker. Quarantined
// shards stop receiving traffic while a background recovery loop re-locks
// the core's bias controllers and recalibrates the detector decode
// (photonic.Core.Relock); a successful relock plus a clean probe readmits
// the shard through a half-open probation phase. Queries keep flowing to the
// surviving shards; with every shard quarantined the NIC degrades gracefully
// to typed Unavailable errors instead of silently wrong answers.

import (
	"fmt"
	"math"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/health"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// ShardState is a shard's circuit-breaker position. It mirrors
// internal/health.State (the shared breaker core this NIC and the cluster
// coordinator both drive) but stays a distinct exported type: the public API
// predates the extraction and its String form is pinned.
type ShardState int32

const (
	// ShardHealthy shards receive round-robin traffic.
	ShardHealthy ShardState = iota
	// ShardQuarantined shards receive no traffic while recovery re-locks
	// them; a shard whose relock attempts are exhausted stays here.
	ShardQuarantined
	// ShardProbation shards are half-open: they take live traffic again,
	// but one bad outcome re-quarantines them and a run of clean ones
	// readmits them.
	ShardProbation
)

// String implements fmt.Stringer.
func (s ShardState) String() string {
	switch s {
	case ShardHealthy:
		return "healthy"
	case ShardQuarantined:
		return "quarantined"
	case ShardProbation:
		return "probation"
	}
	return fmt.Sprintf("ShardState(%d)", int32(s))
}

// probationTrials is how many consecutive clean outcomes a half-open shard
// must serve before readmission.
const probationTrials = 4

// Health-policy defaults (see Config).
const (
	defaultHealthWindow   = 32
	defaultRelockAttempts = 3
	defaultRelockBackoff  = 10 * time.Millisecond
	defaultDrainTimeout   = 5 * time.Second
)

// healthThreshold is the windowed error rate at or above which a shard's
// circuit breaker trips, once its window has filled.
const healthThreshold = 0.5

// probeTolerance is the mean absolute known-answer error, in code units,
// beyond which a probe fails: several sigma above the calibrated noise
// floor (see probeCoreError).
const probeTolerance = 3.0

// probePairs are the known-answer operands a probe drives through every
// lane. They cover the transfer curve's low, mid and full-scale regions,
// asymmetrically per modulator, so a bias excursion on either modulator, a
// carrier sag, or a dead lane all move at least one reading well past the
// calibrated-noise floor.
var probePairs = [...][2]fixed.Code{
	{16, 240}, {240, 16}, {64, 64}, {128, 255},
	{255, 128}, {200, 200}, {32, 96}, {255, 255},
}

// probeCoreError drives the known-answer vectors through the core across
// all lanes and returns the mean absolute reading error in code units. The
// mean over the probe set keeps single noise-tail draws from flapping the
// breaker: with the calibrated noise model (σ≈1.65 codes) the healthy mean
// sits near 1.3 codes with a standard error well under half a code, so the
// default 3-code tolerance is several sigma away.
func probeCoreError(core *photonic.Core) float64 {
	lanes := core.NumLanes()
	scale := core.FullScaleLanes
	if scale < 1 {
		scale = 1
	}
	a := make([]fixed.Code, lanes)
	b := make([]fixed.Code, lanes)
	var sum float64
	for _, p := range probePairs {
		for i := range a {
			a[i], b[i] = p[0], p[1]
		}
		want := float64(lanes) * float64(p[0]) * float64(p[1]) / float64(fixed.MaxCode) / float64(scale)
		sum += math.Abs(core.Step(a, b) - want)
	}
	return sum / float64(len(probePairs))
}

// pickShard selects the next shard for a query: round-robin over the shard
// ring, skipping quarantined shards (probation shards take traffic — their
// live queries are the half-open trials). It returns nil when every shard is
// quarantined.
func (n *NIC) pickShard() *shard {
	k := uint64(len(n.shards))
	start := n.next.Add(1) - 1
	for i := uint64(0); i < k; i++ {
		sh := n.shards[(start+i)%k]
		if sh.breaker.Available() {
			return sh
		}
	}
	return nil
}

// recordOutcome feeds one served-query outcome into the shard's breaker,
// tripping it or progressing probation as warranted, and runs the periodic
// known-answer probe when the cadence asks for one.
func (n *NIC) recordOutcome(sh *shard, bad bool) {
	switch sh.breaker.Observe(bad) {
	case health.VerdictTrip:
		n.trip(sh)
	case health.VerdictProbeDue:
		if err := n.probeShard(sh); err != nil {
			n.trip(sh)
		}
	}
}

// probeShard runs the known-answer probe on a shard's core under its serve
// lock and returns an error when the mean reading error exceeds tolerance.
func (n *NIC) probeShard(sh *shard) error {
	sh.mu.Lock()
	e := probeCoreError(sh.core)
	sh.mu.Unlock()
	sh.probes.Add(1)
	if e > probeTolerance {
		sh.probeFailures.Add(1)
		return fmt.Errorf("lightning: shard %d known-answer probe error %.2f codes exceeds tolerance %.2f",
			sh.index, e, probeTolerance)
	}
	return nil
}

// ProbeShards sweeps the known-answer probe across every non-quarantined
// shard, tripping the breaker of each one that fails, and returns the probe
// errors indexed by shard (nil entries passed or were already quarantined).
// Deployments run this as a detection sweep between traffic bursts; the
// chaos tests use it to make fault detection a deterministic event.
//
//lint:allow reachability TestChaosBiasRunawayQuarantineRelockReadmit and the other chaos tests sweep the shards on demand
func (n *NIC) ProbeShards() []error {
	errs := make([]error, len(n.shards))
	for i, sh := range n.shards {
		if !sh.breaker.Available() {
			continue
		}
		if err := n.probeShard(sh); err != nil {
			errs[i] = err
			n.trip(sh)
		}
	}
	return errs
}

// trip opens a shard's circuit breaker and launches its background recovery
// loop. Safe to call from any state; only the transition out of
// healthy/probation spawns recovery.
func (n *NIC) trip(sh *shard) {
	if !sh.breaker.Trip() {
		return
	}
	select {
	case <-n.closing:
		// A closed NIC spawns no new recovery; the shard stays quarantined,
		// which is what a NIC being torn down wants.
		return
	default:
	}
	n.recovering.Add(1)
	go n.recoverShard(sh)
}

// recoverShard is the self-healing loop for one quarantined shard: re-lock
// the core's bias controllers and recalibrate the detector decode, verify
// with a known-answer probe, and on success reopen the shard half-open
// (probation). Attempts back off exponentially; a shard whose faults relock
// cannot heal (a dead lane) stays quarantined after the attempts run out —
// the NIC keeps serving on the survivors.
func (n *NIC) recoverShard(sh *shard) {
	defer n.recovering.Add(-1)
	backoff := n.relockBackoff
	for attempt := 0; attempt < n.relockAttempts; attempt++ {
		if attempt > 0 {
			// Backoff races shutdown: a Close mid-sleep must not leave Drain
			// waiting out a relock schedule (which can run to hours on a dead
			// lane).
			t := time.NewTimer(backoff)
			select {
			case <-n.closing:
				t.Stop()
				return
			case <-t.C:
			}
			backoff *= 2
		}
		sh.mu.Lock()
		err := sh.core.Relock()
		sh.mu.Unlock()
		if err != nil {
			sh.relockFailures.Add(1)
			continue
		}
		sh.relocks.Add(1)
		if n.probeShard(sh) != nil {
			continue
		}
		sh.breaker.StartProbation()
		return
	}
}

// InjectFault applies a fault from internal/fault to one shard's hardware
// under that shard's serve lock, so the injection never races an in-flight
// query. It implements fault.Applier, letting a fault.Runner drive a live
// NIC. Memory faults act on the shared DRAM weight store and therefore
// degrade every shard regardless of the index given.
//
//lint:allow reachability TestProbeDetectsSilentBiasRunaway and TestClusterChaosCorruptComputeQuarantined inject faults through it
func (n *NIC) InjectFault(shard int, f fault.Fault) error {
	if shard < 0 || shard >= len(n.shards) {
		return fmt.Errorf("lightning: no shard %d (NIC has %d)", shard, len(n.shards))
	}
	sh := n.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return f.Apply(fault.Target{Core: sh.core, DRAM: n.store.DRAM})
}

// ShardHealth is one shard's health snapshot in Metrics.
type ShardHealth struct {
	// State is the circuit-breaker position.
	State ShardState
	// Served and Errors count this shard's completed queries and
	// infrastructure failures (client mistakes — unknown model, wrong
	// input width — are rejected before dispatch and never counted here).
	Served, Errors uint64
	// Score is the current sliding-window error rate in [0, 1].
	Score float64
	// Quarantines and Readmissions count breaker trips and successful
	// recoveries.
	Quarantines, Readmissions uint64
	// Probes and ProbeFailures count known-answer probe runs and
	// out-of-tolerance results.
	Probes, ProbeFailures uint64
	// Relocks and RelockFailures count recovery re-lock outcomes.
	Relocks, RelockFailures uint64
}

// HealthStats aggregates the health subsystem across shards.
type HealthStats struct {
	// Quarantines, Readmissions, Probes, ProbeFailures, Relocks and
	// RelockFailures sum the per-shard counters.
	Quarantines, Readmissions uint64
	Probes, ProbeFailures     uint64
	Relocks, RelockFailures   uint64
	// Unavailable counts queries refused because every shard was
	// quarantined (degraded mode).
	Unavailable uint64
}

// health snapshots one shard for Metrics.
func (sh *shard) health() ShardHealth {
	return ShardHealth{
		State:          ShardState(sh.breaker.State()),
		Served:         sh.servedQ.Load(),
		Errors:         sh.errQ.Load(),
		Score:          sh.breaker.Score(),
		Quarantines:    sh.breaker.Quarantines(),
		Readmissions:   sh.breaker.Readmissions(),
		Probes:         sh.probes.Load(),
		ProbeFailures:  sh.probeFailures.Load(),
		Relocks:        sh.relocks.Load(),
		RelockFailures: sh.relockFailures.Load(),
	}
}
