// Package fault is Lightning's deterministic fault-injection framework: the
// chaos seam the robustness tests (and a deployment's game-day drills) drive.
//
// The paper's prototype stays accurate only because a bias controller
// continuously re-locks the analog operating point (Appendix B); everything
// downstream of that assumption — the health scoring, the per-shard circuit
// breakers, degraded-mode serving — needs reproducible ways to break the
// hardware. This package provides them at all three layers:
//
//   - photonic faults (BiasRunaway, LaserSag, DeadLane, DriftBurst) corrupt
//     a shard's analog core through the hooks internal/photonic exposes;
//   - memory faults (ReadErrorBurst) fail loads from the shared DRAM weight
//     store through mem.DRAM's ReadFault seam;
//   - network faults (Conn, StubConn, DropFirst) wrap a net.PacketConn with
//     seeded loss, corruption and duplication in front of the serve loop.
//
// Faults are scheduled in a Plan — a logical-step schedule with no wall
// clock anywhere — and fired by a Runner against an Applier (the NIC), or
// against a cluster's nodes (node.go). The same seed and plan always produce
// the same fault sequence, so a chaos soak is a regression test, not a dice
// roll.
//
//lint:allow reachability test support: the chaos tests (TestChaos*, TestClusterChaos*) and the wire tests' StubConn inject faults through it
package fault

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"

	"github.com/lightning-smartnic/lightning/internal/mem"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// Target bundles the hardware surfaces a fault can act on: one shard's
// photonic core and the (shared) DRAM weight store. Either may be nil when
// the injection context lacks that surface; faults must check.
type Target struct {
	Core *photonic.Core
	DRAM *mem.DRAM
}

// Fault is one injectable hardware fault. Apply runs under the owning
// shard's serve lock, so it never races an in-flight query.
type Fault interface {
	// Name identifies the fault in logs and Fired records.
	Name() string
	// Apply injects the fault into the target's hardware.
	Apply(t Target) error
}

// Event schedules a fault at a logical plan step against one unit: a shard
// of a NIC for a Fault, a node of a cluster for a NodeFault.
type Event[F any] struct {
	// Step is the plan-clock tick at which the event fires (a Runner whose
	// clock reaches or passes Step fires it).
	Step uint64
	// Unit selects the shard or node that receives the fault. Memory faults
	// act on the shared DRAM regardless of shard.
	Unit int
	// Fault is the fault to inject.
	Fault F
}

// Plan is a deterministic fault schedule: a set of events ordered by step.
// Build one with At, or derive a randomized-but-reproducible one with
// Scatter. Plans are immutable once handed to a Runner.
type Plan[F any] struct {
	events []Event[F]
}

// NewPlan returns an empty shard-fault plan.
func NewPlan() *Plan[Fault] { return &Plan[Fault]{} }

// NewNodePlan returns an empty node-fault plan.
func NewNodePlan() *Plan[NodeFault] { return &Plan[NodeFault]{} }

// At schedules a fault on a unit at a plan step and returns the plan for
// chaining. Events keep their insertion order within a step.
func (p *Plan[F]) At(step uint64, unit int, f F) *Plan[F] {
	p.events = append(p.events, Event[F]{Step: step, Unit: unit, Fault: f})
	return p
}

// Scatter schedules n copies of the faults produced by mk at seeded-random
// steps in [0, window) across seeded-random units in [0, units) — the bulk
// loader for chaos soaks. mk receives the event index so callers can vary
// fault parameters (and their seeds) per event.
func (p *Plan[F]) Scatter(seed uint64, n int, window uint64, units int, mk func(i int) F) *Plan[F] {
	rng := rand.New(rand.NewPCG(seed, 0xfa17))
	for i := 0; i < n; i++ {
		p.At(rng.Uint64N(window), rng.IntN(units), mk(i))
	}
	return p
}

// Events returns the plan's events sorted by step (stable, so same-step
// events keep insertion order).
func (p *Plan[F]) Events() []Event[F] {
	out := append([]Event[F](nil), p.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// Applier injects a fault into one shard's hardware surfaces.
// *lightning.NIC implements it (InjectFault takes the shard's serve lock).
type Applier interface {
	InjectFault(shard int, f Fault) error
}

// Fired records one event's injection outcome.
type Fired[F any] struct {
	Event Event[F]
	// Err is the injection error, if any (e.g. a fault aimed at a lane the
	// core doesn't have). The runner keeps going: a chaos plan with one
	// misaimed event still exercises the rest.
	Err error
}

// Runner binds a plan to the units it injects into and fires events as its
// logical clock advances. The caller owns the clock: advance it per served
// query, per wall-tick, per test phase — whatever makes the experiment
// reproducible. Safe for concurrent use.
type Runner[F any] struct {
	mu     sync.Mutex
	events []Event[F]
	inject func(unit int, f F) error
	step   uint64
	next   int
	fired  []Fired[F]
}

// NewRunner prepares a shard-fault plan for execution against an applier
// (a NIC). Events scheduled at step 0 fire on the first Advance (the clock
// starts at 0 and an event fires when the clock reaches or passes its step).
func NewRunner(p *Plan[Fault], a Applier) *Runner[Fault] {
	return &Runner[Fault]{events: p.Events(), inject: a.InjectFault}
}

// NewNodeRunner prepares a node-fault plan for execution against a cluster
// harness, as NewRunner does for a NIC.
func NewNodeRunner(p *Plan[NodeFault], a NodeApplier) *Runner[NodeFault] {
	return &Runner[NodeFault]{events: p.Events(), inject: a.InjectNodeFault}
}

// Advance moves the plan clock forward n ticks and injects every event
// whose step the clock has now reached, in step order. It returns the
// events fired by this call.
func (r *Runner[F]) Advance(n uint64) []Fired[F] {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.step += n
	var out []Fired[F]
	for r.next < len(r.events) && r.events[r.next].Step <= r.step {
		ev := r.events[r.next]
		r.next++
		f := Fired[F]{Event: ev, Err: r.inject(ev.Unit, ev.Fault)}
		r.fired = append(r.fired, f)
		out = append(out, f)
	}
	return out
}

// Step advances the plan clock one tick.
func (r *Runner[F]) Step() []Fired[F] { return r.Advance(1) }

// Clock returns the current plan-clock value.
func (r *Runner[F]) Clock() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.step
}

// Fired returns every event injected so far, in firing order.
func (r *Runner[F]) Fired() []Fired[F] {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Fired[F](nil), r.fired...)
}

// Pending returns the count of events not yet fired.
func (r *Runner[F]) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events) - r.next
}

// errNoSurface builds the error for a fault applied to a Target lacking the
// hardware surface it needs.
func errNoSurface(name, surface string) error {
	return fmt.Errorf("fault: %s needs a %s in its target", name, surface)
}
