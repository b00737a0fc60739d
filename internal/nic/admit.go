package nic

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Admission control: per-model bounded queues with weighted dequeue, sitting
// between the serve loop's reader and its worker pool. The single
// undifferentiated job channel the worker pool started with gave every model
// the same claim on the shards and no claim at all once the channel filled;
// under open-loop overload that means a chatty low-value model can starve a
// latency-critical one, and every accepted query is served no matter how
// stale it has become. The Admitter replaces it with three policies a
// deployment can actually tune:
//
//   - Admission: each model has its own bounded FIFO. A full queue rejects at
//     ingress (the reader counts the drop per model) instead of blocking the
//     reader or displacing other models' queries.
//   - Weighted priority: workers dequeue across the per-model queues by
//     smooth weighted round-robin, so a model with weight 3 gets three
//     dequeues for every one of a weight-1 model whenever both have work
//     pending — proportional service under contention, work-conserving when
//     only one model is busy.
//   - Deadline budgets: every job carries its arrival time and its model's
//     latency budget. The worker that dequeues a job whose budget has
//     already elapsed sheds it (the caller counts the shed) rather than
//     burning a photonic pass on an answer the client has given up on.
//
//   - Batching at dequeue (SetBatch): a pop takes up to MaxBatch of one
//     model's jobs, from a queue whose batch is ready.
//
// The Admitter owns queueing policy only — no sockets, no datapath — so the
// whole admission/priority/shedding/batching surface is testable with an
// injected clock, hand-fired timers and opaque payloads.

// AdmitPolicy is one model's admission-control knobs. The zero value means
// "inherit the AdmissionConfig defaults".
type AdmitPolicy struct {
	// Weight is the model's share of worker dequeues when several models
	// have queries pending (smooth weighted round-robin; default 1).
	Weight int
	// MaxQueue bounds the model's pending-job queue; arrivals beyond it are
	// rejected at admission (default: AdmissionConfig.MaxQueue, else the
	// serve loop's default bound).
	MaxQueue int
	// Budget is the model's latency budget, measured from admission to
	// dequeue: a job still queued past it is shed instead of served late.
	// Under batching the dequeue is the batch's pop, so the wait for a
	// batch to fill counts too. Only a worker pool queues: the inline
	// reader answers each read at once, and HandleMessage runs each call
	// as a batch of one. 0 inherits AdmissionConfig.Budget; negative
	// disables shedding for this model even when a default budget is set.
	Budget time.Duration
}

// ParseAdmitWeights parses comma-separated "id:weight" pairs (the
// -admit-weights syntax of lightning-serve and lightning-loadgen) into
// per-model policies that set only Weight. Blank entries are skipped; no
// entry at all is an error.
func ParseAdmitWeights(s string) (map[uint16]AdmitPolicy, error) {
	out := map[uint16]AdmitPolicy{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, weight, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("admit weights entry %q: want id:weight", part)
		}
		m, err := strconv.ParseUint(id, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("admit weights entry %q: model id: %w", part, err)
		}
		w, err := strconv.Atoi(weight)
		if err != nil {
			return nil, fmt.Errorf("admit weights entry %q: weight: %w", part, err)
		}
		out[uint16(m)] = AdmitPolicy{Weight: w}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("admit weights %q: no entries", s)
	}
	return out, nil
}

// AdmissionConfig configures the Admitter: defaults for every model plus
// per-model overrides.
type AdmissionConfig struct {
	// MaxQueue is the default per-model queue bound. 0 lets the serve loop
	// choose (ServeUDPWorkers uses workers*4, the capacity of the old
	// undifferentiated job channel).
	MaxQueue int
	// Budget is the default per-model latency budget (0 = no shedding).
	Budget time.Duration
	// Models holds per-model policy overrides keyed by wire model ID.
	Models map[uint16]AdmitPolicy
}

// AdmitJob is one admitted query: an opaque payload plus the bookkeeping the
// dequeuing worker needs for deadline-aware shedding.
type AdmitJob struct {
	Model uint16
	// Arrival is when the job was admitted (the Admitter's clock).
	Arrival time.Time
	// Budget is the model's resolved latency budget (0 = never shed).
	Budget time.Duration
	// Payload is whatever the serve loop queued (it owns the type).
	Payload any
}

// Expired reports whether the job's latency budget had already elapsed at
// time now — the dequeue-side shedding test.
func (j *AdmitJob) Expired(now time.Time) bool {
	return j.Budget > 0 && now.Sub(j.Arrival) > j.Budget
}

// admitQueue is one model's pending FIFO plus its WRR state.
type admitQueue struct {
	model  uint16
	weight int
	bound  int
	budget time.Duration

	// jobs[head:] is the FIFO; the array is reused once drained so the
	// steady state stops re-growing.
	jobs []AdmitJob
	head int

	// current is the smooth-WRR accumulator: every selection round adds
	// weight, the winner pays the round's total back.
	current int

	// Batching only: timer is the MaxDelay timer, armed for generation
	// armed; each pop bumps gen, so a fire for popped jobs readies
	// nothing. due says why a partial batch may leave now.
	timer      BatchTimer
	gen, armed uint64
	due        uint8
}

func (q *admitQueue) pending() int { return len(q.jobs) - q.head }

// Admitter is the admission-control stage between the serve loop's reader
// and its workers. All methods are safe for concurrent use.
type Admitter struct {
	mu   sync.Mutex
	cond *sync.Cond
	// now is the injected clock stamping job arrivals (tests drive budgets
	// with a logical clock).
	now      func() time.Time
	cfg      AdmissionConfig
	defBound int
	queues   map[uint16]*admitQueue
	// order fixes queue iteration for deterministic WRR selection: creation
	// order, ties going to the earliest-created queue.
	order   []*admitQueue
	pending int
	closed  bool

	// SetBatch's: a pop takes up to maxBatch jobs (1 when off).
	maxBatch int
	maxDelay time.Duration
	newTimer TimerFactory
	batches  *BatchCounters
}

// NewAdmitter builds an Admitter. defaultBound is the per-model queue bound
// used when neither the config default nor the model policy sets one.
func NewAdmitter(cfg AdmissionConfig, defaultBound int) *Admitter {
	if defaultBound < 1 {
		defaultBound = 1
	}
	a := &Admitter{
		now:      time.Now,
		cfg:      cfg,
		defBound: defaultBound,
		queues:   make(map[uint16]*admitQueue),
		maxBatch: 1,
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// SetClock replaces the admitter's time source (tests drive arrival stamps
// and budget expiry with a logical clock).
func (a *Admitter) SetClock(now func() time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.now = now
}

// SetBatch makes a queue ready to pop only once MaxBatch jobs wait, the
// MaxDelay timer newTimer made for it fired, Flush was called, or admission
// closed; a pop then takes up to MaxBatch jobs, and batches counts it. A
// disabled cfg keeps one-job pops. Call it before the first Offer.
func (a *Admitter) SetBatch(cfg BatchConfig, newTimer TimerFactory, batches *BatchCounters) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cfg.Enabled() {
		a.maxBatch, a.maxDelay, a.newTimer, a.batches = cfg.MaxBatch, cfg.MaxDelay, newTimer, batches
	}
}

// queueFor resolves (or lazily creates) a model's queue; callers hold a.mu.
func (a *Admitter) queueFor(model uint16) *admitQueue {
	if q, ok := a.queues[model]; ok {
		return q
	}
	pol := a.cfg.Models[model]
	q := &admitQueue{model: model, weight: pol.Weight, bound: pol.MaxQueue, budget: pol.Budget}
	if q.weight < 1 {
		q.weight = 1
	}
	if q.bound <= 0 {
		q.bound = a.cfg.MaxQueue
	}
	if q.bound <= 0 {
		q.bound = a.defBound
	}
	if q.budget == 0 {
		q.budget = a.cfg.Budget
	}
	if q.budget < 0 {
		q.budget = 0 // explicit per-model opt-out of a default budget
	}
	if a.maxBatch > 1 {
		q.timer = a.newTimer(func() { a.fire(q) })
	}
	a.queues[model] = q
	a.order = append(a.order, q)
	return q
}

// ready reports whether q has a batch to pop (any job, batching off).
// Callers hold a.mu.
func (a *Admitter) ready(q *admitQueue) bool {
	n := q.pending()
	return n >= a.maxBatch || (n > 0 && (q.due != notDue || a.closed))
}

// arm starts the MaxDelay wait of q's head batch: the first job of an empty
// queue, or what a pop left. Callers hold a.mu.
func (a *Admitter) arm(q *admitQueue) {
	if a.maxDelay <= 0 {
		q.due = dueTimer
		return
	}
	q.armed = q.gen
	q.timer.Reset(a.maxDelay)
}

// fire is a queue timer's callback: the batch it was armed for may leave,
// unless a pop has taken it since.
func (a *Admitter) fire(q *admitQueue) {
	a.mu.Lock()
	if q.armed != q.gen || q.pending() == 0 || q.due != notDue {
		a.mu.Unlock()
		return
	}
	q.due = dueTimer
	a.mu.Unlock()
	a.cond.Signal()
}

// Offer asks admission for one job. It returns false — and the job is the
// caller's to count as dropped — when the model's queue is at its bound or
// the admitter is closed; otherwise the job is queued with its arrival time
// and resolved budget.
func (a *Admitter) Offer(model uint16, payload any) bool {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return false
	}
	q := a.queueFor(model)
	if q.pending() >= q.bound {
		a.mu.Unlock()
		return false
	}
	q.jobs = append(q.jobs, AdmitJob{
		Model:   model,
		Arrival: a.now(),
		Budget:  q.budget,
		Payload: payload,
	})
	a.pending++
	if a.maxBatch > 1 && q.pending() == 1 {
		a.arm(q)
	}
	ready := a.ready(q)
	a.mu.Unlock()
	if ready {
		a.cond.Signal()
	}
	return true
}

// Pop is PopBatch for one job. After Close it keeps returning queued jobs
// until every queue is empty — the workers' shutdown drain — then reports
// ok=false.
func (a *Admitter) Pop() (AdmitJob, bool) {
	var one [1]AdmitJob
	_, ok := a.PopBatch(one[:])
	return one[0], ok
}

// PopBatch blocks until some model's queue is ready, picks one of the ready
// queues by smooth weighted round-robin, and moves up to MaxBatch of its
// oldest jobs into into[:k], k <= len(into). After Close every queue with a
// job is ready; once all are empty PopBatch reports ok=false.
func (a *Admitter) PopBatch(into []AdmitJob) (k int, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		// Smooth WRR: each ready queue gains its weight, the strictly-largest
		// accumulator wins (ties to creation order) and pays back the round
		// total, so long-run service is weight-proportional while any single
		// busy model still gets every slot.
		total := 0
		var best *admitQueue
		for _, q := range a.order {
			if !a.ready(q) {
				continue
			}
			q.current += q.weight
			total += q.weight
			if best == nil || q.current > best.current {
				best = q
			}
		}
		if best != nil {
			best.current -= total
			return a.take(best, into), true
		}
		if a.closed { // closed, every queued job is ready: none is left
			return 0, false
		}
		a.cond.Wait()
	}
}

// take moves q's oldest jobs into into, up to MaxBatch; under batching it
// counts the batch and re-arms the timer for what it left. Callers hold a.mu.
func (a *Admitter) take(q *admitQueue, into []AdmitJob) int {
	full := q.pending() >= a.maxBatch
	k := min(q.pending(), a.maxBatch, len(into))
	for i := range into[:k] {
		into[i] = q.jobs[q.head]
		q.jobs[q.head] = AdmitJob{} // drop the payload reference
		q.head++
	}
	if q.head == len(q.jobs) {
		q.jobs = q.jobs[:0]
		q.head = 0
	}
	a.pending -= k
	if a.maxBatch > 1 {
		a.batches.count(k, full, q.due)
		q.gen++
		q.due = notDue
		q.timer.Stop()
		if q.pending() > 0 && !a.closed {
			a.arm(q)
			if a.ready(q) {
				a.cond.Signal()
			}
		}
	}
	return k
}

// Flush lets every queued partial batch leave now, as a drain flush;
// admission stays open.
func (a *Admitter) Flush() {
	a.mu.Lock()
	for _, q := range a.order {
		if q.pending() > 0 {
			q.due = dueDrain
		}
	}
	a.mu.Unlock()
	a.cond.Broadcast()
}

// Close stops admission and wakes every blocked Pop. Jobs already admitted
// remain poppable (the shutdown drain); new Offers are rejected.
func (a *Admitter) Close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.cond.Broadcast()
}

// Pending returns the total queued-but-undequeued job count.
func (a *Admitter) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pending
}

// Depths returns the instantaneous per-model queue depths — the gauge
// Metrics exposes. Models whose queues have never seen a job are absent.
func (a *Admitter) Depths() map[uint16]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.queues) == 0 {
		return nil
	}
	out := make(map[uint16]int, len(a.queues))
	for id, q := range a.queues {
		out[id] = q.pending()
	}
	return out
}
