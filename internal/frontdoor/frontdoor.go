// Package frontdoor is the one server-side UDP front end (DESIGN.md §16): the
// batched rx loop, the strict frame walk, reassembly under the sender,
// per-model admission ahead of a worker pool, and the tx batcher. A NIC
// serves through it with its datapath as the Handler, the cluster
// coordinator with its pipeline scatter. The Handler is the only seam, and
// it takes a group of requests: the inline reader's read, a worker's
// admission pop and Door.Handle's single message all reach it the same way.
// Everything between the socket and a complete request, and between a
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
	// Query is valid until the handler returns, and only read: it may
	// alias the read buffer (an inline call), a copy the door made at
	// admission, or a reassembly buffer, each of which the door reuses
	// once the request is answered.
	Query []byte
	// reassembled marks a Query that is a reassembly buffer, handed back
	// to the reassembler once the request is answered.
	reassembled bool
}

// Handler answers a group of complete requests — the front door's only seam:
// the complete queries of one batched read (at most rxBatch), one admission
// pop (at most MaxBatch, one model), or one message (a control message, or
// Door.Handle's). Each resps[i] arrives with reqs[i]'s ID and model set,
// Probs an empty slice whose array the handler may fill, and everything
// else zero; each errs[i] arrives nil. The handler fills every response, a
// failure riding in its Err flag with the error in errs[i], and answers
// control messages in their place among the queries. It keeps none of the
// slices, nor any Query, past its return.
type Handler func(reqs []Request, resps []nic.Response, errs []error)

// errStrayResponse rejects a response sent to a server: no work, no answer.
var errStrayResponse = errors.New("lightning: received a response message")

// Door is one server's front door: its reassembly table, admission policy
// and edge counters. The counters accumulate across Serve calls.
type Door struct {
	reasm     *nic.Reassembler
	admission nic.AdmissionConfig
	now       func() time.Time

	// batch is what each worker-pool Serve's admission pop batches by, and
	// timers makes its MaxDelay timers; batches counts every batch popped.
	batch   nic.BatchConfig
	timers  nic.TimerFactory
	batches nic.BatchCounters

	// ctr is the batch seam's syscall accounting for every socket Serve wraps.
	ctr netbatch.Counters
	// conn is the most recently attached socket's seam, whose offload state
	// Stats reports; admit is the live Admitter of the most recent
	// worker-pool Serve (the queue-depth gauges).
	conn  atomic.Pointer[netbatch.BatchConn]
	admit atomic.Pointer[nic.Admitter]

	// rxHist and txHist count datagrams per batched read and per tx flush,
	// groupHist queries per inline group.
	rxHist, txHist, groupHist sizeHist
	// Edge losses, one counter per reason (Stats documents each).
	queueFull, shedDrops, decodeErrors, writeErrors, deadlineErrors atomic.Uint64
	coalescedFrames, oversizedCoalesce                              atomic.Uint64
	// dropsMu guards dropsByModel, the per-model partition of queueFull.
	dropsMu      sync.Mutex
	dropsByModel map[uint16]uint64
	// jobsMu guards jobs, the admitted-request slots not in use. A slot
	// is taken at admission and comes back once its request is answered,
	// dropped or shed, so at most the admission bound's worth exist.
	jobsMu sync.Mutex
	jobs   []*job
}

// New builds a front door over a reassembly table. A zero admission policy
// bounds every model's queue at workers*4 with equal weight and no
// shedding. now is the clock for read deadlines, admission stamps and
// deadline shedding.
func New(reasm *nic.Reassembler, admission nic.AdmissionConfig, now func() time.Time) *Door {
	return &Door{reasm: reasm, admission: admission, now: now}
}

// SetBatch makes later Serve calls' workers pop batches by cfg
// (nic.Admitter.SetBatch), with MaxDelay timers from timers:
// nic.AfterFuncTimer, or a test's hand-fired fake. Call it before Serve.
func (d *Door) SetBatch(cfg nic.BatchConfig, timers nic.TimerFactory) {
	d.batch, d.timers = cfg, timers
}

// BatchStats returns the batch pop's accounting across every Serve call.
func (d *Door) BatchStats() nic.BatchStats { return d.batches.Stats() }

// Flush lets the partial batches in the most recent worker-pool Serve's
// admission leave now.
func (d *Door) Flush() {
	if ad := d.admit.Load(); ad != nil {
		ad.Flush()
	}
}

// Handle runs one decoded message through the front half with no socket —
// the NIC's HandleMessage — and a complete request through h as a group of
// one. Its fragments reassemble under the zero source. A non-final fragment
// and a stray response return no response; any other returns a fresh one.
func (d *Door) Handle(msg *nic.Message, h Handler) (*nic.Response, error) {
	var clk nic.BatchClock
	req, ok, err := d.handle(msg, netip.AddrPort{}, &clk, nil, nil)
	if !ok {
		return nil, err
	}
	g := &struct { // the group of one, in one allocation
		reqs  [1]Request
		resps [1]nic.Response
		errs  [1]error
	}{[1]Request{req}, [1]nic.Response{{RequestID: req.ID, ModelID: req.Model}}, [1]error{err}}
	if err != nil {
		g.resps[0].Err = true
	} else {
		h(g.reqs[:], g.resps[:], g.errs[:])
	}
	d.release(req)
	g.reqs[0] = Request{} // the response outlives the query's storage
	return &g.resps[0], g.errs[0]
}

// handle is the one decision point: reject a stray response, reassemble
// under the sender, with the reassembler's clock read at most once into clk
// for the messages that share it, then hand back a control message, or a
// complete query with no admission (admit nil), for the caller to answer
// inline — ok — or copy the query out of the read buffer and offer it to
// admission. A fragment the reassembler refuses comes back ok with its
// error, to be answered with an Err-flagged response.
func (d *Door) handle(msg *nic.Message, src netip.AddrPort, clk *nic.BatchClock, admit *nic.Admitter, addr net.Addr) (req Request, ok bool, err error) {
	if msg.IsResponse() {
		return req, false, errStrayResponse
	}
	// Reassembly runs ahead of admission so admission judges complete
	// queries: fragment bookkeeping is cheap, and a query rejected at
	// admission must not leave a partial pinned in the reassembly table.
	query, model, done, err := d.reasm.OfferBatch(src, msg, clk)
	if err != nil {
		return Request{ID: msg.RequestID, Model: msg.ModelID}, true, err
	}
	if !done {
		return req, false, nil
	}
	// The control flag survives fragmentation, so the completing fragment
	// carries it here.
	req = Request{
		ID: msg.RequestID, Model: model, Control: msg.Flags&nic.FlagControl != 0,
		Query: query, reassembled: msg.Flags&nic.FlagFragment != 0,
	}
	if req.Control || admit == nil {
		return req, true, nil
	}
	d.offer(admit, req, addr)
	return req, false, nil
}

// release hands a reassembled query's buffer back to the reassembler once
// its request is answered.
func (d *Door) release(req Request) {
	if req.reassembled {
		d.reasm.Release(req.Query)
	}
}

// offer admits one complete query toward the worker pool in a recycled job
// slot. An unfragmented query aliases the shared read buffer, so it is
// copied into the slot's own storage first; a reassembled one is already
// the request's. A query its model's full queue refuses is dropped here and
// its slot recycled at once.
func (d *Door) offer(admit *nic.Admitter, req Request, addr net.Addr) {
	j := d.getJob()
	if !req.reassembled {
		j.query = append(j.query[:0], req.Query...)
		req.Query = j.query
	}
	j.req, j.addr = req, addr
	if admit.Offer(req.Model, j) {
		return
	}
	d.putJob(j)
	// The model's queue is at bound: drop at ingress and account it, per
	// model and in aggregate.
	d.queueFull.Add(1)
	d.dropsMu.Lock()
	if d.dropsByModel == nil {
		d.dropsByModel = make(map[uint16]uint64)
	}
	d.dropsByModel[req.Model]++
	d.dropsMu.Unlock()
}

// job is one complete request admitted toward the worker pool, in a slot
// the door recycles: query is the slot's storage for an unfragmented
// query's bytes.
type job struct {
	req   Request
	addr  net.Addr
	query []byte
}

// getJob takes a free job slot, or makes one.
func (d *Door) getJob() *job {
	d.jobsMu.Lock()
	defer d.jobsMu.Unlock()
	k := len(d.jobs)
	if k == 0 {
		return new(job)
	}
	j := d.jobs[k-1]
	d.jobs[k-1] = nil
	d.jobs = d.jobs[:k-1]
	return j
}

// putJob recycles a slot whose request was answered, dropped or shed,
// handing a reassembled query's buffer back first.
func (d *Door) putJob(j *job) {
	d.release(j.req)
	j.req, j.addr = Request{}, nil
	d.jobsMu.Lock()
	d.jobs = append(d.jobs, j)
	d.jobsMu.Unlock()
}

// loop is one Serve call's state: resp is the reader's response to every
// reassembly refusal, and in the reader's group.
type loop struct {
	d     *Door
	h     Handler
	bc    netbatch.BatchConn
	admit *nic.Admitter // nil at zero workers
	tx    *txBatcher
	resp  nic.Response
	in    *group
	// clk is the reassembler's clock reading for the batch being walked,
	// empty until the batch's first offer that needs one.
	clk nic.BatchClock
}

// group is a batch of requests answered in one handler call, where each
// response goes, and a worker's admission slots. Its arrays are one owner's
// — the reader's or a worker's — for the Serve call, so a group costs no
// allocation and a response's Probs array serves each request in its slot.
type group struct {
	reqs  []Request
	addrs []net.Addr
	jobs  []*job
	resps []nic.Response
	errs  []error
}

// newGroup makes a group of at most size requests.
func newGroup(size int) *group {
	return &group{
		reqs:  make([]Request, 0, size),
		addrs: make([]net.Addr, size),
		jobs:  make([]*job, size),
		resps: make([]nic.Response, size),
		errs:  make([]error, size),
	}
}

// add puts one request in the group; j is nil for the reader's.
func (g *group) add(req Request, addr net.Addr, j *job) {
	k := len(g.reqs)
	g.reqs = g.reqs[:k+1]
	g.reqs[k], g.addrs[k], g.jobs[k] = req, addr, j
}

// answer runs the group through the handler and queues its responses in
// request order — with flush, written at once (txBatcher.send). It then
// lets go of each request's slot or reassembly buffer and empties the
// group, so an idle owner pins no query or sender.
func (l *loop) answer(g *group, flush bool) {
	k := len(g.reqs)
	if k == 0 {
		return
	}
	resps, errs := g.resps[:k], g.errs[:k]
	for i := range g.reqs {
		resps[i] = nic.Response{RequestID: g.reqs[i].ID, ModelID: g.reqs[i].Model, Probs: resps[i].Probs[:0]}
		errs[i] = nil
	}
	l.h(g.reqs, resps, errs)
	l.tx.send(resps, g.addrs[:k], flush)
	for i := range g.reqs {
		if j := g.jobs[i]; j != nil {
			l.d.putJob(j)
		} else {
			l.d.release(g.reqs[i])
		}
	}
	clear(g.reqs)
	clear(g.addrs[:k])
	clear(g.jobs[:k])
	clear(errs)
	g.reqs = g.reqs[:0]
}

// Serve answers every complete request arriving on pc until ctx is
// cancelled (nil) or a read fails fatally (the error). With workers == 0 the
// reader answers the complete queries of one batched read — up to rxBatch —
// in one handler call before the read's flush, so no response waits on
// traffic that had not yet arrived. With workers > 0 queries pass per-model
// admission (bound workers*4 unless the policy sets one) to a worker pool:
// a worker pops a batch (SetBatch; else one query), sheds what outlived
// its budget, answers the rest in one call and flushes their responses.
// The reader answers control messages as groups of one, and reassembly
// refusals Err-flagged, after the queries that arrived ahead of them.
// On return every admitted request has been answered and flushed.
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
	l := &loop{d: d, h: h, bc: bc, tx: &txBatcher{d: d, bc: bc}, in: newGroup(rxBatch)}
	stopWorkers := func() {}
	if workers > 0 {
		l.admit = nic.NewAdmitter(d.admission, workers*4)
		l.admit.SetClock(d.now)
		l.admit.SetBatch(d.batch, d.timers, &d.batches)
		d.admit.Store(l.admit)
		stopWorkers = l.startWorkers(workers)
	}
	err := l.readLoop(ctx)
	stopWorkers()
	return err
}

// startWorkers launches the worker pool and returns the function that
// retires it: close admission, then let the workers finish every admitted
// request.
func (l *loop) startWorkers(workers int) (stop func()) {
	size := 1
	if l.d.batch.Enabled() {
		size = l.d.batch.MaxBatch
	}
	var pool sync.WaitGroup
	for w := 0; w < workers; w++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			g, popped := newGroup(size), make([]nic.AdmitJob, size)
			for l.serveBatch(g, popped) {
			}
		}()
	}
	return func() {
		l.admit.Close()
		pool.Wait()
	}
}

// serveBatch is one worker turn: pop a batch, shed the jobs whose budget
// ran out while they waited — queued, or for the batch to fill — and answer
// the rest. It reports false once admission is closed and empty.
func (l *loop) serveBatch(g *group, popped []nic.AdmitJob) bool {
	k, ok := l.admit.PopBatch(popped)
	if !ok {
		return false
	}
	now := l.d.now()
	for i := range popped[:k] {
		j := popped[i].Payload.(*job)
		if popped[i].Expired(now) {
			l.d.shedDrops.Add(1)
			l.d.putJob(j)
			continue
		}
		g.add(j.req, j.addr, j)
	}
	clear(popped[:k])
	l.answer(g, true)
	return true
}

// readLoop is the batched rx read loop: one deadline arm per batch read,
// at most one reassembler clock read per batch, idle-tick reassembly GC,
// cancellation observed at every tick. It returns
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
		l.clk = nic.BatchClock{}
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
		l.answerGroup()
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
		req, ok, err := l.d.handle(&msg, src, &l.clk, l.admit, addr)
		if !ok {
			continue
		}
		if err == nil && !req.Control {
			l.join(req, addr)
			continue
		}
		// The queries ahead of a control message or a refusal are answered
		// first: responses keep arrival order, and an install between two
		// queries lands between them.
		l.answerGroup()
		if err != nil {
			l.resp = nic.Response{RequestID: req.ID, ModelID: req.Model, Err: true, Probs: l.resp.Probs[:0]}
			l.tx.queue(&l.resp, addr)
			continue
		}
		l.in.add(req, addr, nil)
		l.answer(l.in, false)
	}
}

// join adds a complete inline query to the read's group, answering the
// group first when it already holds rxBatch queries: under GRO one read can
// carry hundreds of frames, and a group's storage, and the engine's, stays
// bounded.
func (l *loop) join(req Request, addr net.Addr) {
	if len(l.in.reqs) == cap(l.in.reqs) {
		l.answerGroup()
	}
	l.in.add(req, addr, nil)
}

// answerGroup answers the read's pending queries as one group; the read's
// flush comes after.
func (l *loop) answerGroup() {
	l.d.groupHist.observe(len(l.in.reqs))
	l.answer(l.in, false)
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
	// sat queued — waiting their turn or, under batching, for their batch
	// to fill — served-late answers the clients would have discarded.
	Shed uint64
	// AdmissionDrops is the per-model breakdown of QueueFull, keyed by
	// wire model ID (nil until a drop happens).
	AdmissionDrops map[uint16]uint64
	// QueueDepth is the instantaneous per-model admission queue depth
	// while a worker pool is (or was last) attached (nil otherwise) — the
	// gauge that shows where backlog is building. Under batching it
	// includes the queries waiting for their batch to fill.
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
	// InlineBatchSize is a histogram of queries per inline group: the
	// complete queries of one batched read that a worker-less Serve
	// answered together, as one matrix pass per model. The NIC's Batch
	// stats count the worker pool's batches, not these.
	InlineBatchSize SizeHist
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
		InlineBatchSize:   d.groupHist.snapshot(),
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
	if s.InlineBatchSize.Count > 0 {
		line += fmt.Sprintf(", inline-batch mean %.1f", s.InlineBatchSize.Mean())
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
