package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"github.com/lightning-smartnic/lightning/internal/health"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// readTick is how often the serve loop surfaces from a blocking read to
// check for cancellation and expire stale reassembly entries — the same
// cadence the NIC serve loops use.
const readTick = 100 * time.Millisecond

// Front-door batch parameters, mirroring the NIC serve loops: rxBatch
// datagrams per batched read, each slot sized for the max UDP datagram.
const (
	rxBatch      = 16
	rxMsgBufSize = 65536
)

// ServeUDP is the cluster's front door: it speaks the exact wire protocol a
// single NIC does (so clients, including cmd/lightning-loadgen, need no
// changes), reassembles fragmented queries, and runs each through the
// pipeline on a worker pool. Ingest is batched through internal/netbatch —
// one recvmmsg drains up to rxBatch datagrams on the Linux fast path, and
// each datagram may pack several coalesced query frames. Responses carry
// Config.ModelID; requests for any other model get an Err-flagged response.
// The loop exits on context cancellation (returning nil once the workers
// drain) or a fatal read error.
func (c *Coordinator) ServeUDP(ctx context.Context, pc net.PacketConn, workers int) error {
	if workers < 1 {
		workers = 1
	}
	bc := netbatch.Wrap(pc, &c.wireCtr)
	type job struct {
		requestID uint32
		query     []byte
		addr      net.Addr
	}
	jobs := make(chan job, workers*4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				resp, _ := c.Infer(ctx, j.query) // the Err flag rides in the response
				resp.RequestID = j.requestID
				c.writeResponse(bc, j.addr, resp)
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	handleFrame := func(msg *nic.Message, addr net.Addr) {
		if msg.IsResponse() {
			return
		}
		query, modelID, done, rerr := c.reassembly.OfferFrom(nic.Source(addr), msg)
		if rerr != nil {
			c.writeResponse(bc, addr, &nic.Response{RequestID: msg.RequestID, ModelID: msg.ModelID, Err: true})
			return
		}
		if !done {
			return
		}
		if modelID != c.cfg.ModelID {
			c.writeResponse(bc, addr, &nic.Response{RequestID: msg.RequestID, ModelID: modelID, Err: true})
			return
		}
		if msg.Flags&nic.FlagFragment == 0 {
			// Unfragmented queries alias the shared read buffer; the worker
			// needs its own copy. Reassembled queries already own theirs.
			query = append([]byte(nil), query...)
		}
		select {
		case jobs <- job{requestID: msg.RequestID, query: query, addr: addr}:
		default:
			// Workers saturated: shed at ingress, honestly.
			c.writeResponse(bc, addr, &nic.Response{RequestID: msg.RequestID, ModelID: modelID, Err: true})
			c.degraded.Add(1)
		}
	}

	ms := netbatch.MakeMessages(rxBatch, rxMsgBufSize)
	for {
		if err := bc.SetReadDeadline(c.now().Add(readTick)); err != nil {
			c.writeErrors.Add(1)
			select {
			case <-ctx.Done():
				return nil
			default:
			}
		}
		cnt, err := bc.ReadBatch(ms)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.reassembly.GC()
				select {
				case <-ctx.Done():
					return nil
				default:
					continue
				}
			}
			return err
		}
		for i := 0; i < cnt; i++ {
			// Walk the datagram's coalesced frames; a malformed frame ends
			// the walk (strict length-prefix policy, same as the NIC).
			data := ms[i].Bytes()
			for len(data) > 0 {
				var msg nic.Message
				consumed, derr := msg.DecodeNext(data)
				if derr != nil {
					c.decodeErrors.Add(1)
					break
				}
				data = data[consumed:]
				handleFrame(&msg, ms[i].Addr)
			}
		}
	}
}

// writeResponse encodes and sends one response through the batch seam,
// counting (never fatally surfacing) write failures — one unreachable client
// must not stop the front door.
func (c *Coordinator) writeResponse(bc netbatch.BatchConn, addr net.Addr, resp *nic.Response) {
	out, err := nic.AppendResponseFrame(nil, resp)
	if err != nil {
		c.writeErrors.Add(1)
		return
	}
	one := [1]netbatch.Message{{Buf: out, N: len(out), Addr: addr}}
	if _, werr := bc.WriteBatch(one[:]); werr != nil {
		c.writeErrors.Add(1)
	}
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
	// with an explicit Err flag (no viable plan, budget exhausted, shed);
	// Restarts counts request restarts after a mid-pipeline re-plan.
	Served, Degraded, Restarts uint64
	// Replans counts successful plan placements (including the first);
	// Hedges counts hedged dispatches; HopRetries counts per-hop retry
	// attempts.
	Replans, Hedges, HopRetries uint64
	// Installs and InstallErrors count partition pushes onto nodes.
	Installs, InstallErrors uint64
	// DecodeErrors and WriteErrors count front-door datagram failures.
	DecodeErrors, WriteErrors uint64
	// ReassemblyOversize counts front-door fragments refused for declaring
	// a query longer than nic.MaxQueryBytes.
	ReassemblyOversize uint64
	// RxSyscalls and TxSyscalls count front-door batched-read and -write
	// syscalls; divide Served by them for the amortized syscalls/query.
	RxSyscalls, TxSyscalls uint64
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
		DecodeErrors:  c.decodeErrors.Load(),
		WriteErrors:   c.writeErrors.Load(),
		RxSyscalls:    c.wireCtr.ReadCalls.Load(),
		TxSyscalls:    c.wireCtr.WriteCalls.Load(),

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
