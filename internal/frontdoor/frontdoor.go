// Package frontdoor is the one server-side UDP front end (DESIGN.md §16): the
// batched rx loop, the strict frame walk, reassembly under the sender,
// per-model admission ahead of a worker pool, and the tx batcher. A NIC
// serves through it with its datapath as the Handler, the cluster
// coordinator with its pipeline scatter. The Handler is the only seam:
// everything between the socket and a complete request, and between a
// response and the socket, exists once, and so does every counter it keeps.
package frontdoor

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// readTick is how often the serve loop surfaces from a blocking read to
// check for cancellation and expire stale reassembly entries.
const readTick = 100 * time.Millisecond

// slotSize is each batch slot's read-buffer size: the max UDP datagram, so no
// legal datagram — and no GRO-coalesced train — truncates.
const slotSize = netbatch.GROSlot

// rxBatch is how many datagrams one batched read may drain: one recvmmsg
// on the Linux fast path (the portable fallback reads one datagram per call
// regardless). Wide enough to drain a saturation-level burst per syscall,
// narrow enough that one batch's buffers stay cache-resident.
const rxBatch = 16

// Request is one complete request: every fragment reassembled.
type Request struct {
	ID    uint32
	Model uint16
	// Control marks a control-plane message (nic.FlagControl), answered
	// inline: a full inference queue must not starve a coordinator's re-plan.
	Control bool
	// Query may alias the read buffer on an inline call, valid until the
	// handler returns; a request that waited in admission owns its bytes.
	Query []byte
}

// Handler answers one complete request — the front door's only seam. A
// failure rides in the response's Err flag, with the error beside it.
type Handler func(Request) (*nic.Response, error)

// errStrayResponse rejects a response sent to a server: no work, no answer.
var errStrayResponse = errors.New("lightning: received a response message")

// Door is one server's front door: its reassembly table, admission policy
// and edge counters. The counters accumulate across Serve calls.
type Door struct {
	reasm     *nic.Reassembler
	admission nic.AdmissionConfig
	now       func() time.Time

	// ctr is the batch seam's syscall accounting for every socket Serve wraps.
	ctr netbatch.Counters
	// conn is the most recently attached socket's seam, whose offload state
	// Stats reports; admit is the live Admitter of the most recent
	// worker-pool Serve (the queue-depth gauges).
	conn  atomic.Pointer[netbatch.BatchConn]
	admit atomic.Pointer[nic.Admitter]

	// rxHist and txHist count datagrams per batched read and per tx flush.
	rxHist, txHist sizeHist
	// Edge losses, one counter per reason (Stats documents each).
	queueFull, shedDrops, decodeErrors, writeErrors, deadlineErrors atomic.Uint64
	coalescedFrames, oversizedCoalesce                              atomic.Uint64
	// dropsMu guards dropsByModel, the per-model partition of queueFull.
	dropsMu      sync.Mutex
	dropsByModel map[uint16]uint64
}

// New builds a front door over a reassembly table. A zero admission policy
// bounds every model's queue at workers*4 with equal weight and no
// shedding. now is the clock for read deadlines, admission stamps and
// deadline shedding.
func New(reasm *nic.Reassembler, admission nic.AdmissionConfig, now func() time.Time) *Door {
	return &Door{reasm: reasm, admission: admission, now: now}
}

// Handle runs one decoded message through the front half with no socket —
// the NIC's HandleMessage and HandleFrame. src is the sender its fragments
// reassemble under (the zero source where the entry has none). A non-final
// fragment and a stray response return no response.
func (d *Door) Handle(msg *nic.Message, src netip.AddrPort, h Handler) (*nic.Response, error) {
	return d.handle(msg, src, h, nil, nil)
}

// handle is the one decision point: reject a stray response, reassemble
// under the sender, answer a control message inline, then run the complete
// query inline (admit nil) or copy it out of the read buffer and offer it to
// admission.
func (d *Door) handle(msg *nic.Message, src netip.AddrPort, h Handler, admit *nic.Admitter, addr net.Addr) (*nic.Response, error) {
	if msg.IsResponse() {
		return nil, errStrayResponse
	}
	// Reassembly runs ahead of admission so admission judges complete
	// queries: fragment bookkeeping is cheap, and a query rejected at
	// admission must not leave a partial pinned in the reassembly table.
	query, model, done, err := d.reasm.OfferFrom(src, msg)
	if err != nil {
		return &nic.Response{RequestID: msg.RequestID, ModelID: msg.ModelID, Err: true}, err
	}
	if !done {
		return nil, nil
	}
	// The control flag survives fragmentation, so the completing fragment
	// carries it here.
	req := Request{ID: msg.RequestID, Model: model, Control: msg.Flags&nic.FlagControl != 0, Query: query}
	if req.Control || admit == nil {
		return h(req)
	}
	if msg.Flags&nic.FlagFragment == 0 {
		// An unfragmented query aliases the shared read buffer; copy it out
		// before queueing. Reassembled queries already own their array.
		req.Query = append([]byte(nil), query...)
	}
	if !admit.Offer(model, job{req: req, addr: addr}) {
		// The model's queue is at bound: drop at ingress and account it,
		// per model and in aggregate.
		d.queueFull.Add(1)
		d.dropsMu.Lock()
		if d.dropsByModel == nil {
			d.dropsByModel = make(map[uint16]uint64)
		}
		d.dropsByModel[model]++
		d.dropsMu.Unlock()
	}
	return nil, nil
}

// job is one complete request admitted toward the worker pool.
type job struct {
	req  Request
	addr net.Addr
}

// loop is one Serve call's state.
type loop struct {
	d     *Door
	h     Handler
	bc    netbatch.BatchConn
	admit *nic.Admitter // nil at zero workers
	tx    *txBatcher
}

// Serve answers every complete request arriving on pc with h until ctx is
// cancelled (nil) or a read fails fatally (the error). With workers == 0 the
// reader runs each request inline; with workers > 0 requests pass per-model
// admission (bound workers*4 unless the policy sets one) to a worker pool.
// On return every admitted request has been answered and flushed: the
// reader flushes after each batch read, a worker after each response.
//
// rail, when not nil, wraps pc in place of the default rail (the batch
// seam's best path, GRO on): the differential tests' hook that serves the
// same traffic with offload off or on the portable fallback.
func (d *Door) Serve(ctx context.Context, pc net.PacketConn, workers int, h Handler, rail func(net.PacketConn, *netbatch.Counters) netbatch.BatchConn) error {
	var bc netbatch.BatchConn
	if rail != nil {
		bc = rail(pc, &d.ctr)
	} else {
		bc = netbatch.Wrap(pc, &d.ctr)
		// GRO is the serve socket's alone: its slots hold any coalesced
		// train, and readLoop cuts every slot back into datagrams.
		if err := netbatch.EnableGRO(bc, slotSize); err != nil {
			return err
		}
	}
	d.conn.Store(&bc)
	l := &loop{d: d, h: h, bc: bc, tx: &txBatcher{d: d, bc: bc}}
	stopWorkers := func() {}
	if workers > 0 {
		l.admit = nic.NewAdmitter(d.admission, workers*4)
		l.admit.SetClock(d.now)
		d.admit.Store(l.admit)
		stopWorkers = l.startWorkers(workers)
	}
	err := l.readLoop(ctx)
	stopWorkers()
	return err
}

// startWorkers launches the worker pool and returns the function that
// retires it: close admission, then let the workers finish every admitted
// request. Each worker writes its response through at once, so no response
// waits on another's company.
func (l *loop) startWorkers(workers int) (stop func()) {
	var pool sync.WaitGroup
	for w := 0; w < workers; w++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			for {
				aj, ok := l.admit.Pop()
				if !ok {
					return
				}
				if aj.Expired(l.d.now()) {
					l.d.shedDrops.Add(1)
					continue
				}
				j := aj.Payload.(job)
				resp, _ := l.h(j.req) // the error rides in the Err flag
				l.tx.queue(resp, j.addr)
				l.tx.flush()
			}
		}()
	}
	return func() {
		l.admit.Close()
		pool.Wait()
	}
}

// readLoop is the batched rx read loop: one deadline arm per batch read,
// idle-tick reassembly GC, cancellation observed at every tick. It returns
// nil on cancellation and the error on a fatal read failure.
func (l *loop) readLoop(ctx context.Context) error {
	d := l.d
	ms := netbatch.MakeMessages(rxBatch, slotSize)
	for {
		if err := l.bc.SetReadDeadline(d.now().Add(readTick)); err != nil {
			// Counted, not fatal: a failed deadline arm usually means the
			// socket is closing, which the next read surfaces; meanwhile
			// cancellation must still be observed even if reads now block
			// indefinitely.
			d.deadlineErrors.Add(1)
			if ctx.Err() != nil {
				return nil
			}
		}
		cnt, err := l.bc.ReadBatch(ms)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// Idle tick: expire stale partial queries even when no
				// fragments arrive to trigger the lazy sweep.
				d.reasm.GC()
				if ctx.Err() != nil {
					return nil
				}
				continue
			}
			return err
		}
		dgrams := 0
		for i := 0; i < cnt; i++ {
			dgrams += ms[i].Datagrams()
		}
		d.rxHist.observe(dgrams)
		for i := 0; i < cnt; i++ {
			// A GRO slot is cut back into its datagrams, so every
			// per-datagram rule holds exactly as for separate reads.
			m := &ms[i]
			data := m.Bytes()
			for m.Seg > 0 && len(data) > m.Seg {
				l.walkDatagram(data[:m.Seg], m.Addr)
				data = data[m.Seg:]
			}
			l.walkDatagram(data, m.Addr)
		}
		// Everything the reader produced for this batch — inline answers,
		// reassembly errors, control acks — leaves in one batched write.
		l.tx.flush()
	}
}

// walkDatagram walks every coalesced frame in one rx datagram through the
// decision point, queueing whatever responses the reader itself produces.
// The length-prefix walk is strict: a malformed first frame counts a decode
// error, a malformed tail after at least one valid frame counts
// OversizedCoalesce — and in both cases the rest of the datagram is dropped
// without a response, so a partial frame can never be served.
func (l *loop) walkDatagram(data []byte, addr net.Addr) {
	first := true
	for len(data) > 0 {
		var msg nic.Message
		consumed, derr := msg.DecodeNext(data)
		if derr != nil {
			if first {
				l.d.decodeErrors.Add(1)
			} else {
				l.d.oversizedCoalesce.Add(1)
			}
			return
		}
		if !first {
			l.d.coalescedFrames.Add(1)
		}
		first = false
		data = data[consumed:]
		// Only a fragment is reassembled under its sender; the rest never
		// pay for the address.
		var src netip.AddrPort
		if msg.Flags&nic.FlagFragment != 0 {
			src = nic.Source(addr)
		}
		if resp, _ := l.d.handle(&msg, src, l.h, l.admit, addr); resp != nil {
			l.tx.queue(resp, addr)
		}
	}
}

// Stats counts datagrams and responses lost at the front door's edges, per
// reason, and how well the wire batches.
type Stats struct {
	// QueueFull counts complete requests dropped at admission because their
	// model's queue was at its bound (backpressure under overload).
	// AdmissionDrops partitions the same events per model.
	QueueFull uint64
	// Shed counts admitted requests dropped at dequeue because their
	// latency budget (AdmitPolicy.Budget) had already elapsed while they
	// sat queued — served-late answers the clients would have discarded.
	Shed uint64
	// AdmissionDrops is the per-model breakdown of QueueFull, keyed by
	// wire model ID (nil until a drop happens).
	AdmissionDrops map[uint16]uint64
	// QueueDepth is the instantaneous per-model admission queue depth
	// while a worker pool is (or was last) attached (nil otherwise) — the
	// gauge that shows where backlog is building.
	QueueDepth map[uint16]int
	// DecodeErrors counts datagrams that failed wire decode.
	DecodeErrors uint64
	// WriteErrors counts response datagrams whose socket write failed.
	WriteErrors uint64
	// DeadlineErrors counts failed read-deadline arms on the serve
	// socket. The loop keeps serving (a closed socket surfaces as a read
	// error immediately after), but a persistent count means cancellation
	// latency is degraded.
	DeadlineErrors uint64
	// Truncated counts rx datagrams longer than their read slot: the fast
	// path drops them unwalked instead of serving a cut frame.
	Truncated uint64
	// RxBatchSize and TxBatchSize are bounded histograms of datagrams
	// moved per batched read and per tx flush — the observability that
	// says whether wire batching is actually amortizing anything. A
	// GRO-coalesced train counts as its datagrams, not as one.
	RxBatchSize SizeHist
	TxBatchSize SizeHist
	// CoalescedFrames counts frames beyond the first unpacked from
	// multi-frame rx datagrams (wire-level frame coalescing in action).
	CoalescedFrames uint64
	// OversizedCoalesce counts malformed coalesced tails dropped after at
	// least one valid frame in the same datagram: the strict length-prefix
	// walk refused to serve a partial frame. (A datagram whose first frame
	// is malformed counts in DecodeErrors instead.)
	OversizedCoalesce uint64
	// RxSyscalls and TxSyscalls count batch-seam socket operations
	// (including poll-probe wakeups on the fast path); served queries
	// divided by their sum is the amortized queries-per-syscall figure the
	// bench suite gates on.
	RxSyscalls, TxSyscalls uint64
	// GSO and GRO report whether segmented sends and coalesced reads are
	// live on the most recently attached serve socket, after any sticky
	// fallback — false on the portable path or where the kernel refused.
	GSO, GRO bool
}

// Stats returns a snapshot of the front door's counters.
func (d *Door) Stats() Stats {
	s := Stats{
		QueueFull:         d.queueFull.Load(),
		Shed:              d.shedDrops.Load(),
		DecodeErrors:      d.decodeErrors.Load(),
		WriteErrors:       d.writeErrors.Load(),
		DeadlineErrors:    d.deadlineErrors.Load(),
		Truncated:         d.ctr.Truncated.Load(),
		RxBatchSize:       d.rxHist.snapshot(),
		TxBatchSize:       d.txHist.snapshot(),
		CoalescedFrames:   d.coalescedFrames.Load(),
		OversizedCoalesce: d.oversizedCoalesce.Load(),
		RxSyscalls:        d.ctr.ReadCalls.Load(),
		TxSyscalls:        d.ctr.WriteCalls.Load(),
	}
	if bc := d.conn.Load(); bc != nil {
		s.GSO, s.GRO = netbatch.Offload(*bc)
	}
	d.dropsMu.Lock()
	s.AdmissionDrops = maps.Clone(d.dropsByModel)
	d.dropsMu.Unlock()
	if ad := d.admit.Load(); ad != nil {
		s.QueueDepth = ad.Depths()
	}
	return s
}

// Line renders the snapshot for an operator's stats line: the per-reason
// drops, admission drops and backlog, and — once the wire has moved
// anything — the batching, syscalls per served query and live offloads.
func (s Stats) Line(served uint64) string {
	line := fmt.Sprintf("queue-full %d, shed %d, decode-err %d, write-err %d",
		s.QueueFull, s.Shed, s.DecodeErrors, s.WriteErrors)
	if len(s.AdmissionDrops) > 0 {
		var ids []uint16
		for id := range s.AdmissionDrops {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		drops := make([]string, len(ids))
		for i, id := range ids {
			drops[i] = fmt.Sprintf("%d:%d", id, s.AdmissionDrops[id])
		}
		line += " | admission drops [" + strings.Join(drops, " ") + "]"
	}
	if len(s.QueueDepth) > 0 {
		depth := 0
		for _, d := range s.QueueDepth {
			depth += d
		}
		line += fmt.Sprintf(" | admitted backlog %d", depth)
	}
	if s.RxBatchSize.Count == 0 && s.TxBatchSize.Count == 0 {
		return line
	}
	line += fmt.Sprintf(" | wire: rx-batch mean %.1f, tx-batch mean %.1f, syscalls rx %d tx %d",
		s.RxBatchSize.Mean(), s.TxBatchSize.Mean(), s.RxSyscalls, s.TxSyscalls)
	if served > 0 && s.RxSyscalls+s.TxSyscalls > 0 {
		line += fmt.Sprintf(" (%.2f/query)", float64(s.RxSyscalls+s.TxSyscalls)/float64(served))
	}
	line += fmt.Sprintf(", offload gso %s gro %s", onOff(s.GSO), onOff(s.GRO))
	if s.Truncated > 0 {
		line += fmt.Sprintf(", truncated %d", s.Truncated)
	}
	if s.CoalescedFrames > 0 || s.OversizedCoalesce > 0 {
		line += fmt.Sprintf(", coalesced frames %d (oversized drops %d)", s.CoalescedFrames, s.OversizedCoalesce)
	}
	if s.DeadlineErrors > 0 {
		line += fmt.Sprintf(", deadline-err %d", s.DeadlineErrors)
	}
	return line
}

// onOff renders a live/not-live state for the stats line.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
