package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lightning-smartnic/lightning/internal/frontdoor"
	"github.com/lightning-smartnic/lightning/internal/health"
	"github.com/lightning-smartnic/lightning/internal/nic"
	"github.com/lightning-smartnic/lightning/internal/nn"
)

// ErrNoViablePlan is the honest-degradation error: every node is quarantined
// (or installs fail everywhere), so the coordinator cannot place a pipeline.
// Requests receive Err-flagged responses — never a silently wrong answer —
// until the recovery loop readmits a node and a re-plan succeeds.
var ErrNoViablePlan = errors.New("cluster: no viable plan: every node is quarantined")

// errPlanStale marks a request whose plan was rebuilt under it mid-pipeline
// (a node tripped); Infer restarts the request on the new plan, at most
// maxRestarts times.
var errPlanStale = errors.New("cluster: plan went stale mid-request")

const (
	// maxRestarts bounds how many times one request may restart from stage
	// 0 after a mid-pipeline re-plan.
	maxRestarts = 1
	// Each node's circuit breaker — the same machinery a NIC's core shards
	// use, lifted to node granularity — scores a window of 16 outcomes,
	// trips at an error rate of 0.5 and readmits after 2 clean trials.
	healthWindow    = 16
	healthThreshold = 0.5
	healthTrials    = 2
	// probeTolerance is the mean absolute per-code drift a known-answer
	// probe response may show against its install-time baseline.
	probeTolerance = 3.0
	// partBase is the wire model-ID base for installed partitions. Stage
	// IDs are unique per plan epoch so a re-plan never overwrites a model
	// an in-flight request still depends on.
	partBase uint16 = 0x7000
)

// Config parameterizes a Coordinator.
type Config struct {
	// Nodes are the serving NICs' UDP addresses. Every node must run with
	// AllowModelInstall so the coordinator can push partitions. A plan runs
	// one stage per live node, capped at the model's layer count.
	Nodes []string
	// Model is the full network the cluster serves.
	Model *nn.QuantizedNetwork
	// ModelID is the user-facing wire model ID the coordinator answers for.
	ModelID uint16
	// Replicate installs each stage on a second node too, enabling hedged
	// dispatch and instant per-hop failover without a re-plan.
	Replicate bool
	// Budget bounds each request end to end (default 2s). Per-hop deadlines
	// derive from it: remaining budget split evenly over remaining hops.
	Budget time.Duration
	// HopRetries is how many extra attempts a hop gets within its share of
	// the budget before the coordinator declares the node suspect (default 1).
	HopRetries int
	// Hedge, when > 0 and a replica exists, duplicates a hop's dispatch onto
	// the replica if the primary has not answered within this long; first
	// answer wins. Tail latency insurance against slow nodes.
	Hedge time.Duration
	// ProbeEvery asks each node's breaker for a known-answer probe every
	// ProbeEvery healthy outcomes (0 disables the cadence).
	ProbeEvery int
	// InstallTimeout bounds each install and probe round trip (default 2s).
	InstallTimeout time.Duration
	// RecoveryInterval is the cadence at which quarantined nodes are probed
	// for readmission (default 250ms).
	RecoveryInterval time.Duration
	// Seed drives probe-input generation, so baselines are reproducible.
	Seed uint64
}

// node is the coordinator's view of one serving NIC.
type node struct {
	index   int
	addr    string
	nc      *nodeClient
	breaker *health.Breaker

	served, errs          atomic.Uint64
	probes, probeFailures atomic.Uint64

	mu        sync.Mutex
	baselines map[uint16]baseline
	lastModel uint16
	hasModel  bool
}

// baseline is a known-answer record from install time: the node answered
// probs/class for input when its partition was fresh; drifting off it later
// means corrupted compute.
type baseline struct {
	input []byte
	probs []uint8
	class uint16
}

// stage is one hop of a placed pipeline.
type stage struct {
	modelID uint16
	width   int
	primary *node
	replica *node // nil without Config.Replicate
}

// plan is one immutable placement of the pipeline onto live nodes. Requests
// snapshot the plan pointer, so a re-plan never mutates a plan under a
// request — stale requests either complete on surviving nodes (stage model
// IDs are epoch-unique, so their partitions remain installed) or fail onto
// the new plan.
type plan struct {
	epoch  uint64
	stages []stage
}

// Coordinator scatters a model pipeline across serving NICs and keeps it
// serving through partial failure. See the package comment for the design.
type Coordinator struct {
	cfg   Config
	now   func() time.Time
	nodes []*node

	plan     atomic.Pointer[plan]
	replanMu sync.Mutex // serializes re-planning; the plan pointer swap is atomic
	epoch    atomic.Uint64

	served, degraded, restarts  atomic.Uint64
	replans, hedges, hopRetries atomic.Uint64
	installs, installErrors     atomic.Uint64

	// reassembly is the front door's reassembly table; door is the front
	// door itself, whose counters accumulate across ServeUDP calls.
	reassembly *nic.Reassembler
	door       *frontdoor.Door

	closing   chan struct{}
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup
}

// New dials every node, places the initial plan (installing partitions over
// the wire), and starts the recovery loop. It fails — closing everything it
// opened — if no viable plan can be placed at startup.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	if cfg.Model == nil || len(cfg.Model.Layers) == 0 {
		return nil, fmt.Errorf("cluster: no model configured")
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 2 * time.Second
	}
	if cfg.HopRetries <= 0 {
		cfg.HopRetries = 1
	}
	if cfg.InstallTimeout <= 0 {
		cfg.InstallTimeout = 2 * time.Second
	}
	if cfg.RecoveryInterval <= 0 {
		cfg.RecoveryInterval = 250 * time.Millisecond
	}
	c := &Coordinator{
		cfg:        cfg,
		now:        time.Now,
		reassembly: nic.NewReassembler(256),
		closing:    make(chan struct{}),
	}
	c.door = frontdoor.New(c.reassembly, nic.AdmissionConfig{},
		func() time.Time { return c.now() })
	hc := health.Config{Window: healthWindow, Threshold: healthThreshold, ProbeEvery: cfg.ProbeEvery, Trials: healthTrials}
	for i, addr := range cfg.Nodes {
		nc, err := dialNode(addr)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, &node{
			index:     i,
			addr:      addr,
			nc:        nc,
			breaker:   health.NewBreaker(hc),
			baselines: make(map[uint16]baseline),
		})
	}
	c.replanMu.Lock()
	err := c.replanLocked()
	c.replanMu.Unlock()
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	c.wg.Add(1)
	go c.recoveryLoop()
	return c, nil
}

// Close tears down the recovery loop and every node channel.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		close(c.closing)
		for _, n := range c.nodes {
			if err := n.nc.close(); err != nil && c.closeErr == nil {
				c.closeErr = err
			}
		}
	})
	c.wg.Wait()
	return c.closeErr
}

// aliveNodes returns the nodes whose breakers admit traffic (healthy or in
// probation), in index order.
func (c *Coordinator) aliveNodes() []*node {
	var out []*node
	for _, n := range c.nodes {
		if n.breaker.Available() {
			out = append(out, n)
		}
	}
	return out
}

// stageModelID derives the epoch-unique wire model ID for a stage. Epoch
// bits roll over after 128 re-plans — far beyond any realistic failure
// sequence before IDs from epoch e-128 could be confused, and those plans
// have no in-flight requests left.
func (c *Coordinator) stageModelID(epoch uint64, si int) uint16 {
	return partBase + uint16((epoch&0x7f)<<4|uint64(si&0xf))
}

// replanCurrent rebuilds the plan on whatever nodes are available now.
func (c *Coordinator) replanCurrent() error {
	c.replanMu.Lock()
	defer c.replanMu.Unlock()
	return c.replanLocked()
}

// replanFrom rebuilds the plan unless someone already rebuilt it past the
// given epoch — the guard that keeps a burst of concurrent hop failures from
// re-planning once per failing request.
func (c *Coordinator) replanFrom(epoch uint64) error {
	c.replanMu.Lock()
	defer c.replanMu.Unlock()
	if p := c.plan.Load(); p != nil && p.epoch > epoch {
		return nil
	}
	return c.replanLocked()
}

// replanLocked partitions the model over the available nodes and installs
// every stage (and replica). A node that fails its install is tripped and
// the placement retried on the shrunken survivor set, so the loop terminates
// either with a working plan or with every node quarantined. Callers hold
// replanMu.
func (c *Coordinator) replanLocked() error {
	for {
		alive := c.aliveNodes()
		if len(alive) == 0 {
			c.plan.Store(nil)
			return ErrNoViablePlan
		}
		parts, err := PartitionPipeline(c.cfg.Model, min(len(alive), len(c.cfg.Model.Layers)))
		if err != nil {
			return err
		}
		epoch := c.epoch.Add(1)
		p := &plan{epoch: epoch, stages: make([]stage, len(parts))}
		ok := true
		for si, part := range parts {
			id := c.stageModelID(epoch, si)
			prim := alive[si%len(alive)]
			var repl *node
			if c.cfg.Replicate && len(alive) > 1 {
				repl = alive[(si+1)%len(alive)]
			}
			if ierr := c.install(prim, id, part); ierr != nil {
				prim.breaker.Trip()
				ok = false
				break
			}
			if repl != nil {
				if ierr := c.install(repl, id, part); ierr != nil {
					repl.breaker.Trip()
					ok = false
					break
				}
			}
			p.stages[si] = stage{modelID: id, width: part.Sizes[0], primary: prim, replica: repl}
		}
		if !ok {
			continue
		}
		c.plan.Store(p)
		c.replans.Add(1)
		return nil
	}
}

// install pushes one partition onto a node over the wire (CtrlInstallModel)
// and records its known-answer baseline: the node's response to a seeded
// probe input while the install is provably fresh. Later probes compare
// against it to catch corrupted compute, not just silence.
func (c *Coordinator) install(n *node, modelID uint16, part *nn.QuantizedNetwork) error {
	var buf bytes.Buffer
	if _, err := part.WriteTo(&buf); err != nil {
		c.installErrors.Add(1)
		return err
	}
	ctrl := nic.BuildControlMessage(0, modelID, nic.CtrlInstallModel, buf.Bytes())
	resp, err := n.nc.call(context.Background(), nic.FlagControl, modelID, ctrl.Payload, c.cfg.InstallTimeout)
	if err != nil {
		c.installErrors.Add(1)
		return fmt.Errorf("cluster: installing model %d on %s: %w", modelID, n.addr, err)
	}
	if resp.Err {
		c.installErrors.Add(1)
		return fmt.Errorf("cluster: node %s rejected install of model %d", n.addr, modelID)
	}
	in := c.probeInput(modelID, part.Sizes[0])
	presp, err := n.nc.call(context.Background(), 0, modelID, in, c.cfg.InstallTimeout)
	if err != nil || presp.Err {
		c.installErrors.Add(1)
		return fmt.Errorf("cluster: baseline probe of model %d on %s failed", modelID, n.addr)
	}
	n.mu.Lock()
	n.baselines[modelID] = baseline{input: in, probs: presp.Probs, class: presp.Class}
	n.lastModel = modelID
	n.hasModel = true
	n.mu.Unlock()
	c.installs.Add(1)
	return nil
}

// probeInput derives the deterministic known-answer input for a stage.
func (c *Coordinator) probeInput(modelID uint16, width int) []byte {
	rng := rand.New(rand.NewPCG(c.cfg.Seed^uint64(modelID), uint64(nic.WireMagic)))
	in := make([]byte, width)
	for i := range in {
		in[i] = byte(rng.UintN(256))
	}
	return in
}

// withinTolerance compares a probe response to its baseline: equal length
// and mean absolute per-code drift at most tol (byte-exact on a noiseless
// node, a noise allowance on an analog one).
func withinTolerance(want, got []uint8, tol float64) bool {
	if len(want) != len(got) {
		return false
	}
	if len(want) == 0 {
		return true
	}
	sum := 0.0
	for i := range want {
		d := float64(want[i]) - float64(got[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum/float64(len(want)) <= tol
}

// probeNode replays the node's latest known-answer baseline and reports
// whether the node still computes it (within tolerance).
func (c *Coordinator) probeNode(n *node) bool {
	n.mu.Lock()
	has := n.hasModel
	bl := n.baselines[n.lastModel]
	id := n.lastModel
	n.mu.Unlock()
	n.probes.Add(1)
	if !has {
		n.probeFailures.Add(1)
		return false
	}
	resp, err := n.nc.call(context.Background(), 0, id, bl.input, c.cfg.InstallTimeout)
	if err != nil || resp.Err || resp.Class != bl.class || !withinTolerance(bl.probs, resp.Probs, probeTolerance) {
		n.probeFailures.Add(1)
		return false
	}
	return true
}

// observe feeds one call outcome to the node's breaker and acts on the
// verdict: a trip re-plans onto survivors; a due probe replays the
// known-answer baseline and trips the node if it has drifted.
func (c *Coordinator) observe(n *node, bad bool) {
	n.served.Add(1)
	if bad {
		n.errs.Add(1)
	}
	switch n.breaker.Observe(bad) {
	case health.VerdictTrip:
		c.afterTrip()
	case health.VerdictProbeDue:
		if !c.probeNode(n) && n.breaker.Trip() {
			c.afterTrip()
		}
	}
}

// afterTrip rebuilds the plan on the survivors. ErrNoViablePlan is not an
// error here: it leaves a nil plan, and Infer degrades honestly until the
// recovery loop readmits a node.
func (c *Coordinator) afterTrip() {
	if err := c.replanCurrent(); err != nil && !errors.Is(err, ErrNoViablePlan) {
		c.installErrors.Add(1)
	}
}

// Infer runs one query through the pipeline. A completed response is the
// exact answer the monolithic model would give (noiseless nodes chain
// byte-identically); a request the cluster cannot complete returns an
// Err-flagged response and a non-nil error — degraded service is always
// explicit, never a silently wrong answer.
func (c *Coordinator) Infer(ctx context.Context, input []byte) (*nic.Response, error) {
	if len(input) != c.cfg.Model.Sizes[0] {
		// A client mistake, not a node failure: reject locally so node
		// breakers only ever see node-attributable outcomes.
		return &nic.Response{ModelID: c.cfg.ModelID, Err: true},
			fmt.Errorf("cluster: query width %d, model wants %d", len(input), c.cfg.Model.Sizes[0])
	}
	deadline := c.now().Add(c.cfg.Budget)
	var lastErr error
	for attempt := 0; attempt <= maxRestarts; attempt++ {
		if attempt > 0 {
			c.restarts.Add(1)
		}
		p := c.plan.Load()
		if p == nil {
			c.degraded.Add(1)
			return &nic.Response{ModelID: c.cfg.ModelID, Err: true}, ErrNoViablePlan
		}
		resp, err := c.runPipeline(ctx, p, input, deadline)
		if err == nil {
			c.served.Add(1)
			resp.ModelID = c.cfg.ModelID
			return resp, nil
		}
		lastErr = err
		if !errors.Is(err, errPlanStale) {
			break
		}
	}
	c.degraded.Add(1)
	return &nic.Response{ModelID: c.cfg.ModelID, Err: true}, lastErr
}

// runPipeline chains the query through every stage of one plan: stage k's
// response activations are stage k+1's query payload, with each hop's
// deadline set to an even share of the remaining budget.
func (c *Coordinator) runPipeline(ctx context.Context, p *plan, input []byte, deadline time.Time) (*nic.Response, error) {
	act := input
	var resp *nic.Response
	for si := range p.stages {
		remaining := deadline.Sub(c.now())
		if remaining <= 0 {
			return nil, fmt.Errorf("cluster: request budget exhausted at stage %d", si)
		}
		hopBudget := remaining / time.Duration(len(p.stages)-si)
		r, err := c.dispatchHop(ctx, p, si, act, hopBudget)
		if err != nil {
			return nil, err
		}
		resp = r
		act = r.Probs
	}
	return resp, nil
}

// dispatchHop runs one stage with bounded retries (alternating onto the
// replica when one exists) and hedging. A hop that exhausts its attempts
// quarantines the primary, re-plans, and reports the plan stale so the
// request restarts on the survivors.
func (c *Coordinator) dispatchHop(ctx context.Context, p *plan, si int, payload []byte, budget time.Duration) (*nic.Response, error) {
	st := p.stages[si]
	if len(payload) != st.width {
		return nil, fmt.Errorf("cluster: stage %d expects %d bytes, got %d", si, st.width, len(payload))
	}
	attempts := c.cfg.HopRetries + 1
	per := budget / time.Duration(attempts)
	if per <= 0 {
		per = time.Millisecond
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.hopRetries.Add(1)
		}
		primary, replica := st.primary, st.replica
		if a%2 == 1 && replica != nil {
			primary, replica = replica, primary
		}
		resp, err := c.callHedged(ctx, primary, replica, st.modelID, payload, per)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	st.primary.breaker.Trip()
	if err := c.replanFrom(p.epoch); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%w: stage %d on %s: %v", errPlanStale, si, st.primary.addr, lastErr)
}

// hopResult is one completed hop attempt.
type hopResult struct {
	resp *nic.Response
	err  error
}

// callHedged dispatches to the primary and — if a hedge delay is configured
// and a replica exists — duplicates the dispatch onto the replica when the
// primary is slow (or fails fast). First clean answer wins; every completed
// attempt still feeds its node's breaker via callObserved.
func (c *Coordinator) callHedged(ctx context.Context, primary, replica *node, modelID uint16, payload []byte, timeout time.Duration) (*nic.Response, error) {
	ch := make(chan hopResult, 2)
	fire := func(n *node) {
		go func() {
			resp, err := c.callObserved(ctx, n, modelID, payload, timeout)
			ch <- hopResult{resp, err}
		}()
	}
	fire(primary)
	outstanding := 1
	hedgeArmed := replica != nil && c.cfg.Hedge > 0 && c.cfg.Hedge < timeout
	var hedgeC <-chan time.Time
	if hedgeArmed {
		t := time.NewTimer(c.cfg.Hedge)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				return r.resp, nil
			}
			lastErr = r.err
			if hedgeArmed {
				// The primary failed before the hedge timer: promote the
				// hedge to an immediate failover attempt.
				hedgeArmed = false
				hedgeC = nil
				c.hedges.Add(1)
				fire(replica)
				outstanding++
				continue
			}
			if outstanding == 0 {
				return nil, lastErr
			}
		case <-hedgeC:
			hedgeArmed = false
			hedgeC = nil
			c.hedges.Add(1)
			fire(replica)
			outstanding++
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// callObserved is one node call whose outcome feeds the node's breaker.
// Caller-side cancellation is not charged to the node.
func (c *Coordinator) callObserved(ctx context.Context, n *node, modelID uint16, payload []byte, timeout time.Duration) (*nic.Response, error) {
	resp, err := n.nc.call(ctx, 0, modelID, payload, timeout)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return nil, err
	}
	c.observe(n, err != nil || resp.Err)
	if err != nil {
		return nil, err
	}
	if resp.Err {
		return nil, fmt.Errorf("cluster: node %s rejected stage query (model %d)", n.addr, modelID)
	}
	return resp, nil
}

// recoveryLoop periodically offers quarantined nodes a way back: a node
// that answers its known-answer baseline again (a healed partition, a
// recovered straggler) — or that at least answers honestly with an error
// (a restarted process that lost its models) — enters probation and the
// plan rebuilds to fold it in, where live traffic completes readmission.
// A node that answers with wrong bytes stays quarantined: reachability
// without integrity is not recovery.
func (c *Coordinator) recoveryLoop() {
	defer c.wg.Done()
	t := time.NewTimer(c.cfg.RecoveryInterval)
	defer t.Stop()
	for {
		select {
		case <-c.closing:
			return
		case <-t.C:
		}
		c.recoverQuarantined()
		t.Reset(c.cfg.RecoveryInterval)
	}
}

// recoverQuarantined probes every quarantined node for readmission.
func (c *Coordinator) recoverQuarantined() {
	readmitted := false
	for _, n := range c.nodes {
		if n.breaker.State() != health.Quarantined {
			continue
		}
		if c.readmissionProbe(n) {
			n.breaker.StartProbation()
			readmitted = true
		}
	}
	if readmitted {
		if err := c.replanCurrent(); err != nil && !errors.Is(err, ErrNoViablePlan) {
			c.installErrors.Add(1)
		}
	}
}

// readmissionProbe decides whether a quarantined node may re-enter service:
// yes if it answers its baseline correctly, or answers an explicit error
// for a model it no longer has (the re-plan will reinstall); no if it is
// silent or computes wrong answers.
func (c *Coordinator) readmissionProbe(n *node) bool {
	n.mu.Lock()
	has := n.hasModel
	bl := n.baselines[n.lastModel]
	id := n.lastModel
	n.mu.Unlock()
	n.probes.Add(1)
	if !has {
		id = partBase
		bl = baseline{}
	}
	resp, err := n.nc.call(context.Background(), 0, id, bl.input, c.cfg.InstallTimeout)
	if err != nil {
		n.probeFailures.Add(1)
		return false
	}
	if resp.Err {
		return true // reachable and honest; reinstall happens at re-plan
	}
	if !has || resp.Class != bl.class || !withinTolerance(bl.probs, resp.Probs, probeTolerance) {
		n.probeFailures.Add(1)
		return false
	}
	return true
}
