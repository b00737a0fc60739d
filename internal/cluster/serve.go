package cluster

import (
	"bytes"
	"context"
	"errors"
	"net"

	"github.com/lightning-smartnic/lightning/internal/frontdoor"
	"github.com/lightning-smartnic/lightning/internal/health"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// errNotServed answers a request the cluster does not serve: another model,
// or a control message (partitions are installed by the coordinator, never
// through it).
var errNotServed = errors.New("cluster: not served by this coordinator")

// ServeUDP is the cluster's front door: the loop a NIC serves through
// (internal/frontdoor, admission bound workers*4) with the pipeline scatter
// as its handler, so clients need no changes. Responses carry
// Config.ModelID; a request for any other model, and any control message,
// gets an Err-flagged response. The loop exits on context cancellation
// (returning nil once every admitted request is answered) or a fatal read
// error.
func (c *Coordinator) ServeUDP(ctx context.Context, pc net.PacketConn, workers int) error {
	if workers < 1 {
		workers = 1
	}
	// The pipeline batches nothing: it answers its group a request at a time.
	h := func(reqs []frontdoor.Request, resps []nic.Response, errs []error) {
		for i := range reqs {
			req, resp := &reqs[i], &resps[i]
			if req.Control || req.Model != c.cfg.ModelID {
				resp.Err = true
				errs[i] = errNotServed
				continue
			}
			// A losing hedge may still be sending its payload after Infer
			// returns, past the point where the door reuses the query's
			// storage, so the pipeline gets a copy of its own.
			r, err := c.Infer(ctx, bytes.Clone(req.Query)) // the Err flag rides in the response
			*resp = *r
			resp.RequestID = req.ID
			errs[i] = err
		}
	}
	return c.door.Serve(ctx, pc, workers, h, nil)
}

// NodeMetrics is one node's health and traffic snapshot.
type NodeMetrics struct {
	Addr          string
	State         health.State
	Served        uint64
	Errors        uint64
	Probes        uint64
	ProbeFailures uint64
	Quarantines   uint64
	Readmissions  uint64
}

// Metrics is a coordinator-wide counter snapshot.
type Metrics struct {
	// Epoch is the current plan's epoch (0 when no plan is placed), Stages
	// its pipeline depth.
	Epoch  uint64
	Stages int
	// Served counts completed requests; Degraded counts requests answered
	// with an explicit Err flag (no viable plan, budget exhausted) — an
	// overloaded front door drops instead, counted in Serve.QueueFull;
	// Restarts counts request restarts after a mid-pipeline re-plan.
	Served, Degraded, Restarts uint64
	// Replans counts successful plan placements (including the first);
	// Hedges counts hedged dispatches; HopRetries counts per-hop retry
	// attempts.
	Replans, Hedges, HopRetries uint64
	// Installs and InstallErrors count partition pushes onto nodes.
	Installs, InstallErrors uint64
	// ReassemblyOversize counts front-door fragments refused for declaring
	// a query longer than nic.MaxQueryBytes.
	ReassemblyOversize uint64
	// Serve is the front door's per-reason edge accounting, the same block
	// a NIC's Metrics carries.
	Serve frontdoor.Stats
	// Nodes holds one snapshot per configured node, in Config.Nodes order.
	Nodes []NodeMetrics
}

// Metrics returns a snapshot of the coordinator's counters.
func (c *Coordinator) Metrics() Metrics {
	m := Metrics{
		Served:        c.served.Load(),
		Degraded:      c.degraded.Load(),
		Restarts:      c.restarts.Load(),
		Replans:       c.replans.Load(),
		Hedges:        c.hedges.Load(),
		HopRetries:    c.hopRetries.Load(),
		Installs:      c.installs.Load(),
		InstallErrors: c.installErrors.Load(),
		Serve:         c.door.Stats(),

		ReassemblyOversize: c.reassembly.Oversize(),
	}
	if p := c.plan.Load(); p != nil {
		m.Epoch = p.epoch
		m.Stages = len(p.stages)
	}
	for _, n := range c.nodes {
		m.Nodes = append(m.Nodes, NodeMetrics{
			Addr:          n.addr,
			State:         n.breaker.State(),
			Served:        n.served.Load(),
			Errors:        n.errs.Load(),
			Probes:        n.probes.Load(),
			ProbeFailures: n.probeFailures.Load(),
			Quarantines:   n.breaker.Quarantines(),
			Readmissions:  n.breaker.Readmissions(),
		})
	}
	return m
}
