// Package lightning is the public API of the Lightning reproduction: a
// reconfigurable photonic-electronic smartNIC for fast and energy-efficient
// inference (SIGCOMM 2023).
//
// The package wires the receive-to-respond pipeline of Fig 5 together:
// queries arrive as UDP datagrams on InferencePort (the kernel's socket
// stands in for the NIC's parser stage), the DAG configuration loader
// reprograms the count-action datapath for the requested model, operands
// stream through DACs into the photonic vector dot-product core, results
// return through preamble detection, the sign-reassembling adders and the
// non-linear units, and a response datagram leaves the NIC.
//
// Construct a NIC, register quantized models under wire model IDs, then
// either hand it wire messages (HandleMessage) or attach it to a UDP socket
// (ServeUDP) and query it with a Client.
package lightning

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lightning-smartnic/lightning/internal/dagloader"
	"github.com/lightning-smartnic/lightning/internal/datapath"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/frontdoor"
	"github.com/lightning-smartnic/lightning/internal/health"
	"github.com/lightning-smartnic/lightning/internal/mem"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
	"github.com/lightning-smartnic/lightning/internal/nn"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// Re-exported wire types so callers need only this package.
type (
	// Code is an unsigned 8-bit datapath sample.
	Code = fixed.Code
	// Message is a Lightning wire request/response.
	Message = nic.Message
	// Response is a decoded inference response.
	Response = nic.Response
	// BatchConfig sets the cross-query batching flush knobs.
	BatchConfig = nic.BatchConfig
	// BatchStats is the batch-queue flush accounting snapshot.
	BatchStats = nic.BatchStats
	// AdmissionConfig sets per-model admission control, weighted priority
	// and deadline-shedding policy for ServeUDPWorkers.
	AdmissionConfig = nic.AdmissionConfig
	// AdmitPolicy is one model's admission-control override.
	AdmitPolicy = nic.AdmitPolicy
	// ServeDrops counts per-reason losses at the serve path's edges.
	ServeDrops = frontdoor.Stats
	// SizeHist is a batch-size distribution snapshot (Metrics.Serve).
	SizeHist = frontdoor.SizeHist
)

// InferencePort is the UDP port inference queries arrive on.
const InferencePort = nic.InferencePort

// Config parameterizes a NIC.
type Config struct {
	// Lanes is the photonic core's wavelength count (the prototype
	// uses 2).
	Lanes int
	// Noiseless disables the calibrated analog noise model (useful for
	// bit-exact tests; real silicon is noisy).
	Noiseless bool
	// Seed drives every stochastic element (noise, ADC phase, DRAM
	// jitter) for reproducible runs.
	Seed uint64
	// Cores is the number of replicated photonic-core + datapath shards.
	// The §6 prototype is a single core (the default, 1, reproduces it
	// bit-for-bit for a fixed Seed); §7's chip design replicates the core
	// to scale throughput, with every core reading the same off-chip
	// weight memory. Each shard owns its own photonic core, datapath
	// engine and DAG loader registers, so concurrent queries run truly in
	// parallel; the DRAM weight store and model registry are shared.
	Cores int
	// ReassemblyTTL bounds how long a partial fragmented query may wait
	// for its missing fragments before the reassembly table expires it
	// (default nic.DefaultReassemblyTTL). The timer starts at the first
	// fragment.
	ReassemblyTTL time.Duration
	// HealthWindow is the per-shard sliding window length, in served
	// queries, over which the health score (error rate) is computed
	// (default 32).
	HealthWindow int
	// ProbeEvery runs a known-answer probe through a shard's core every
	// ProbeEvery served queries, catching silent analog corruption (a bias
	// runaway, a carrier sag) that still yields well-formed responses.
	// Default 0 disables periodic probes. A probe draws noise at the core's
	// cursor, but every served row seeks its own keyed stream, so probes do
	// not move served answers. Probes always gate quarantine recovery
	// regardless.
	ProbeEvery int
	// RelockAttempts bounds how many re-lock + probe recovery attempts a
	// quarantined shard gets before it is left quarantined (default 3).
	RelockAttempts int
	// RelockBackoff is the delay before the second recovery attempt,
	// doubling each attempt after (default 10ms).
	RelockBackoff time.Duration
	// Batch enables cross-query batching in ServeUDPWorkers' worker pool:
	// a worker pops up to MaxBatch same-model queries from admission at once
	// — when that many are queued, when the oldest has waited MaxDelay
	// (default nic.DefaultBatchDelay), or on a drain — and runs them as one
	// matrix pass, amortizing preamble detection, LUT checks, ADC readout,
	// and per-layer reconfiguration and weight streaming across the batch.
	// It governs the worker pool only, on one execution path: ServeUDP
	// answers each read's queries at once as one pass per model, and
	// HandleMessage runs each call as a batch of one — noiselessly
	// bit-for-bit what a batched pass computes for the same queries.
	Batch BatchConfig
	// Admission configures the admission stage ahead of ServeUDPWorkers'
	// worker pool: per-model bounded queues (arrivals beyond the bound are
	// dropped at ingress and counted), weighted priority dequeue across
	// models, and per-model latency budgets past which still-queued
	// requests are shed instead of served late. The zero value keeps every
	// model on one default queue bound (workers*4) with equal weight and no
	// shedding — observably equivalent to the historical single job
	// channel.
	Admission AdmissionConfig
	// DrainTimeout bounds the serve loops' shutdown drain: when a cancelled
	// ServeUDP/ServeUDPWorkers (or a fatal read error) waits out in-flight
	// work, a wedged datapath or a recovery loop mid-backoff cannot hang the
	// shutdown past this budget (default 5s). An explicit Drain call is
	// bounded by its own context instead.
	DrainTimeout time.Duration
	// AllowModelInstall accepts wire control messages (nic.FlagControl /
	// CtrlInstallModel) that register or replace a model over the serving
	// socket — how a cluster coordinator pushes pipeline partitions onto its
	// nodes. Off by default: a NIC serving untrusted traffic must not let
	// clients swap its models.
	AllowModelInstall bool
}

// DefaultConfig matches the §6 prototype.
func DefaultConfig() Config { return Config{Lanes: 2, Seed: 1} }

// shardSeedStride spaces per-shard seeds so replicated cores draw
// decorrelated noise and ADC phase. Shard 0 uses exactly Config.Seed, which
// keeps Cores=1 output bit-identical to the historical single-core path.
const shardSeedStride = 1000

// shard is one replicated photonic core + datapath engine + loader
// pipeline. A shard serves one query at a time (its mutex stands in for the
// hardware pipeline's occupancy); different shards run concurrently.
type shard struct {
	mu     sync.Mutex
	loader *dagloader.Loader
	// core is the shard's photonic core — the health subsystem probes it
	// and the fault framework corrupts it, always under mu.
	core  *photonic.Core
	index int

	// totals aggregates datapath cycle accounting across this shard's
	// served queries, and inputs is where execBatch gathers a batch's
	// inputs (both guarded by mu).
	totals datapath.LayerStats
	inputs [][]fixed.Code

	// breaker is the shard's health state machine (window scoring, trip,
	// half-open probation) — the shared internal/health core the cluster
	// coordinator also drives per node. Its state read is lock-free, so the
	// dispatch path checks availability without contending with mu.
	breaker *health.Breaker

	// Per-shard health counters (satellite of the aggregate Metrics; the
	// quarantine/readmission counts live on the breaker).
	servedQ        atomic.Uint64
	errQ           atomic.Uint64
	probes         atomic.Uint64
	probeFailures  atomic.Uint64
	relocks        atomic.Uint64
	relockFailures atomic.Uint64
}

// NIC is a Lightning smartNIC instance. All exported methods are safe for
// concurrent use: messages and metric scrapes may arrive from any number of
// goroutines.
type NIC struct {
	reassembly *nic.Reassembler

	store  *dagloader.Store
	shards []*shard
	// next drives round-robin query dispatch across shards.
	next atomic.Uint64

	// served counts completed inference responses.
	served atomic.Uint64
	// inflight counts groups currently in the datapath (serveGroup);
	// Drain waits for it to reach zero.
	inflight atomic.Int64
	// recovering counts in-flight shard recovery goroutines; Drain waits
	// for these too, so a drained NIC has no background relock activity.
	recovering atomic.Int64
	// unavailable counts queries refused because every shard was
	// quarantined.
	unavailable atomic.Uint64

	// allowInstall gates wire model installs (Config.AllowModelInstall);
	// installs and installErrors count accepted and rejected ones.
	allowInstall  bool
	installs      atomic.Uint64
	installErrors atomic.Uint64

	// Resolved health policy (see Config); window/threshold/cadence live in
	// each shard's breaker.
	relockAttempts int
	relockBackoff  time.Duration
	// drainTimeout bounds the serve loops' shutdown drains (Config.DrainTimeout).
	drainTimeout time.Duration

	// closing is closed by Close: recovery loops mid-backoff return, and
	// trip stops spawning new ones, so shutdown never waits out a relock
	// schedule. closeOnce makes Close idempotent.
	closing   chan struct{}
	closeOnce sync.Once

	// door is the UDP front end every entry shares (internal/frontdoor):
	// reassembly, admission, the serve loop and its edge counters.
	// rail is the differential tests' hook: when set, serve wraps the
	// socket with it instead of the default rail (see frontdoor.Door.Serve),
	// running the same traffic with offload off or on the portable fallback.
	door *frontdoor.Door
	rail func(net.PacketConn, *netbatch.Counters) netbatch.BatchConn
}

// Served returns the completed inference response count.
func (n *NIC) Served() uint64 { return n.served.Load() }

// Cores returns the number of photonic-core shards.
func (n *NIC) Cores() int { return len(n.shards) }

// Metrics is an operational snapshot of the NIC, the counters a deployment
// would scrape.
type Metrics struct {
	// Served counts completed inference responses.
	Served uint64
	// Reconfigurations counts count-action register reprogrammings.
	Reconfigurations uint64
	// PhotonicSteps, ComputeCycles and DatapathCycles aggregate the
	// datapath cycle accounting across all served queries.
	PhotonicSteps, ComputeCycles, DatapathCycles uint64
	// PreambleMisses counts exception-path fallbacks.
	PreambleMisses uint64
	// DRAMReads and DRAMReadBytes count weight-store traffic;
	// DRAMFaultedReads counts loads failed by an injected read fault (the
	// uncorrectable-error count a memory controller would report).
	DRAMReads, DRAMReadBytes, DRAMFaultedReads uint64
	// PendingReassembly is the in-flight fragmented query count;
	// ReassemblyDrops counts partial queries discarded under capacity
	// or byte-budget pressure or fragment inconsistency;
	// ReassemblyExpired counts partial queries evicted because their TTL
	// deadline passed (lost fragments); ReassemblyOversize counts
	// fragments refused for declaring a query longer than
	// nic.MaxQueryBytes.
	PendingReassembly  int
	ReassemblyDrops    uint64
	ReassemblyExpired  uint64
	ReassemblyOversize uint64
	// Serve accounts per-reason losses at the UDP serve path's edges.
	Serve ServeDrops
	// Batch counts the worker pool's popped batches (all zero when
	// batching is disabled); queries still waiting show in Serve.QueueDepth.
	Batch BatchStats
	// ModelInstalls and ModelInstallErrors count wire control-plane model
	// installs accepted and rejected (always zero unless the NIC was built
	// with Config.AllowModelInstall).
	ModelInstalls, ModelInstallErrors uint64
	// Shards holds one health snapshot per photonic-core shard, in shard
	// order.
	Shards []ShardHealth
	// Health aggregates the self-healing subsystem across shards.
	Health HealthStats
}

// Metrics returns a consistent snapshot.
func (n *NIC) Metrics() Metrics {
	m := Metrics{
		Served:             n.Served(),
		DRAMReads:          n.store.DRAM.Reads(),
		DRAMReadBytes:      n.store.DRAM.ReadBytes(),
		DRAMFaultedReads:   n.store.DRAM.FaultedReads(),
		PendingReassembly:  n.reassembly.Pending(),
		ReassemblyDrops:    n.reassembly.Drops(),
		ReassemblyExpired:  n.reassembly.Expired(),
		ReassemblyOversize: n.reassembly.Oversize(),
		ModelInstalls:      n.installs.Load(),
		ModelInstallErrors: n.installErrors.Load(),
		Serve:              n.door.Stats(),
		Batch:              n.door.BatchStats(),
	}
	m.Shards = make([]ShardHealth, len(n.shards))
	m.Health.Unavailable = n.unavailable.Load()
	for i, sh := range n.shards {
		sh.mu.Lock()
		m.Reconfigurations += sh.loader.Reconfigurations
		m.PhotonicSteps += sh.totals.PhotonicSteps
		m.ComputeCycles += sh.totals.ComputeCycles
		m.DatapathCycles += sh.totals.DatapathCycles
		m.PreambleMisses += sh.totals.PreambleMisses
		sh.mu.Unlock()
		h := sh.health()
		m.Shards[i] = h
		m.Health.Quarantines += h.Quarantines
		m.Health.Readmissions += h.Readmissions
		m.Health.Probes += h.Probes
		m.Health.ProbeFailures += h.ProbeFailures
		m.Health.Relocks += h.Relocks
		m.Health.RelockFailures += h.RelockFailures
	}
	return m
}

// New builds a NIC: calibrated photonic core(s), one datapath engine per
// core, a shared DDR4 weight store, and the packet assembler and admission
// stage of the UDP front end.
func New(cfg Config) (*NIC, error) {
	if cfg.Lanes <= 0 {
		cfg.Lanes = 2
	}
	cores := cfg.Cores
	if cores <= 0 {
		cores = 1
	}
	pcores, err := photonic.NewCoreArray(cores, cfg.Lanes, func(i int) *photonic.NoiseModel {
		if cfg.Noiseless {
			return nil
		}
		return photonic.CalibratedNoise(cfg.Seed + shardSeedStride*uint64(i))
	})
	if err != nil {
		return nil, fmt.Errorf("lightning: building photonic cores: %w", err)
	}
	dram := mem.New(mem.DDR4Spec(), cfg.Seed+2)
	store := dagloader.NewStore(dram)
	if cfg.HealthWindow <= 0 {
		cfg.HealthWindow = defaultHealthWindow
	}
	if cfg.RelockAttempts <= 0 {
		cfg.RelockAttempts = defaultRelockAttempts
	}
	if cfg.RelockBackoff <= 0 {
		cfg.RelockBackoff = defaultRelockBackoff
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = defaultDrainTimeout
	}
	shards := make([]*shard, cores)
	for i, core := range pcores {
		engine := datapath.NewEngine(core, cfg.Seed+shardSeedStride*uint64(i)+1)
		shards[i] = &shard{
			loader: dagloader.NewLoaderWithStore(engine, store),
			core:   core,
			index:  i,
			breaker: health.NewBreaker(health.Config{
				Window:     cfg.HealthWindow,
				Threshold:  healthThreshold,
				ProbeEvery: cfg.ProbeEvery,
				Trials:     probationTrials,
			}),
		}
	}
	ttl := cfg.ReassemblyTTL
	if ttl <= 0 {
		ttl = nic.DefaultReassemblyTTL
	}
	if cfg.Batch.Enabled() && cfg.Batch.MaxDelay <= 0 {
		cfg.Batch.MaxDelay = nic.DefaultBatchDelay
	}
	n := &NIC{
		reassembly:     nic.NewReassemblerTTL(256, ttl),
		store:          store,
		shards:         shards,
		allowInstall:   cfg.AllowModelInstall,
		relockAttempts: cfg.RelockAttempts,
		relockBackoff:  cfg.RelockBackoff,
		drainTimeout:   cfg.DrainTimeout,
		closing:        make(chan struct{}),
	}
	n.door = frontdoor.New(n.reassembly, cfg.Admission, time.Now)
	n.door.SetBatch(cfg.Batch, nic.AfterFuncTimer)
	return n, nil
}

// Drain lets every partial batch waiting in admission leave now, then blocks
// until every in-flight query has left the datapath and every background
// shard recovery has finished, or the context expires. It does not stop new
// work from arriving; callers stop their ingest first (ServeUDP and
// ServeUDPWorkers do this on cancellation before they return).
func (n *NIC) Drain(ctx context.Context) error {
	n.door.Flush()
	for {
		if n.inflight.Load() == 0 && n.recovering.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Close retires the NIC's background machinery: in-flight shard recovery
// loops abandon their backoff and exit, and no new recovery spawns. Queries
// already in the datapath still complete — callers sequence Close before a
// final Drain to get a bounded shutdown even when a dead lane has recovery
// backing off on a long schedule. Close is idempotent and always returns
// nil; the error return is for io.Closer conformance.
func (n *NIC) Close() error {
	n.closeOnce.Do(func() { close(n.closing) })
	return nil
}

// TrainedModel is a classifier ready for registration: train one with
// Train or quantize your own nn.Network.
type TrainedModel = nn.QuantizedNetwork

// RegisterModel makes a quantized classifier servable under a wire model ID
// on every core shard (the registry is shared).
func (n *NIC) RegisterModel(id uint16, name string, q *TrainedModel) error {
	return n.shards[0].loader.RegisterModel(id, name, q)
}

// UpdateModel atomically replaces a registered model's parameters — the
// §6.1 PCIe update path. Queries in flight complete against the old
// version; subsequent queries use the new one.
func (n *NIC) UpdateModel(id uint16, q *TrainedModel) error {
	return n.shards[0].loader.UpdateModel(id, q)
}

// HandleMessage serves one inference query (already parsed from the wire)
// through the photonic datapath, as a batch of one, and returns the
// response. Fragmented queries (large vision inputs, §4/Table 6) accumulate
// in the packet assembler; non-final fragments return (nil, nil).
//
// Queries dispatch round-robin across the healthy core shards; with
// Cores > 1, concurrent callers run inference truly in parallel. Quarantined
// shards are skipped; when every shard is quarantined the NIC answers with
// an Err-flagged response and ErrUnavailable rather than a silently wrong
// result.
func (n *NIC) HandleMessage(msg *Message) (*Response, error) {
	return n.door.Handle(msg, n.serveGroup)
}

// ErrInstallDisabled rejects wire model installs on a NIC that was not
// built with Config.AllowModelInstall.
var ErrInstallDisabled = fmt.Errorf("lightning: wire model install disabled (Config.AllowModelInstall)")

// handleControl serves one reassembled control-plane message into resp,
// which already carries its request and model IDs. Every outcome is acked:
// success with a plain response, rejection with an Err-flagged one, so the
// coordinator never hangs on a silently dropped install.
func (n *NIC) handleControl(modelID uint16, payload []byte, resp *Response) error {
	fail := func(err error) error {
		n.installErrors.Add(1)
		resp.Err = true
		return err
	}
	op, body, err := nic.ParseControl(payload)
	if err != nil {
		return fail(err)
	}
	switch op {
	case nic.CtrlInstallModel:
		if !n.allowInstall {
			return fail(ErrInstallDisabled)
		}
		q, err := nn.ReadQuantized(bytes.NewReader(body))
		if err != nil {
			return fail(fmt.Errorf("lightning: decoding model install: %w", err))
		}
		if _, known := n.store.Model(modelID); known {
			err = n.UpdateModel(modelID, q)
		} else {
			err = n.RegisterModel(modelID, fmt.Sprintf("wire-install-%d", modelID), q)
		}
		if err != nil {
			return fail(err)
		}
		n.installs.Add(1)
		return nil
	default:
		return fail(fmt.Errorf("lightning: unknown control op %d", op))
	}
}
