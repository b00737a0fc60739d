package trace

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	lightning "github.com/lightning-smartnic/lightning"
	"github.com/lightning-smartnic/lightning/benchmark/estimate"
	"github.com/lightning-smartnic/lightning/benchmark/workload"
	"github.com/lightning-smartnic/lightning/internal/dagloader"
	"github.com/lightning-smartnic/lightning/internal/datapath"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/mem"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// Replay drives the first N queries of a workload's pool cycle — the exact
// sequence the window-1 live run served — through each layer's public entry
// point in process, one pass per layer on a twin built like the live NIC's
// single shard (same lanes, same seeds), so the analog noise stream and with
// it every zero-skipped operand is the live run's.
//
// Each pass is cut into Chunks chunks bracketed by the reference kernel; a
// layer's figure is the median over chunks of its scaled mean time per
// query.
type Replay struct {
	W      *workload.Workload
	Ref    *estimate.Ref
	Rec    *Recorder
	N      int
	Chunks int
}

// Layers is what the replay measured: scaled host microseconds per query
// for each layer entry point (a span and the spans nested in it are separate
// passes), the photonic step counts each pass performed, and the allocation
// cost of HandleMessage.
type Layers struct {
	HandleUS float64 // lightning.HandleMessage over the query's frames
	ServeUS  float64 // dagloader.Loader.Serve
	LoadUS   float64 // Σ layers mem.DRAM.Load (weights + bias)
	DecodeUS float64 // Σ layers dagloader.DecodeWeights + DecodeBias
	FCUS     float64 // Σ layers datapath.Engine.ExecuteFCBias
	DotUS    float64 // Σ rows photonic.Core.DotPartialsInto, both sign groups

	// The matrix twins, per query of a MaxBatch-sized batch (zero on a
	// workload that does not batch).
	ServeBatchUS, FCBatchUS, DotBatchUS float64

	CodecUS         float64 // AppendEncode + DecodeNext of the query's frames and the response
	ReassemblyUS    float64 // the query's frames through nic.Reassembler.Offer
	LoopbackQueryUS float64 // the query's datagram train, WriteBatch to ReadBatch, on a socket pair
	LoopbackRespUS  float64 // the response datagram the other way

	HandleAllocs, HandleAllocBytes float64

	// Photonic steps per query as each pass counted them; all must equal
	// the live NIC's.
	HandleSteps, ServeSteps, FCSteps, DotSteps float64
}

// timer accumulates one layer's time within a chunk and folds it into a
// per-chunk series of scaled microseconds per query.
type timer struct {
	ns     int64
	series estimate.Series
}

func (t *timer) add(d time.Duration) { t.ns += int64(d) }

func (t *timer) fold(factor float64, queries int) {
	t.series.Add(float64(t.ns)/1e3/float64(queries), factor)
	t.ns = 0
}

func (t *timer) us() float64 { return t.series.MedianTime() }

// stage is one layer's pass over query k.
type stage func(k int) error

// pass runs the stages over queries [0, n) in rp.Chunks chunks: within a
// chunk each stage in turn serves the chunk's queries, then the reference
// kernel runs and the timers fold. Stages share a chunk's speed factor, so
// the host drifting between one layer's pass and the next cannot open a gap
// between a span and the spans nested in it.
func (rp *Replay) pass(n int, stages []stage, timers ...*timer) error {
	chunks := min(rp.Chunks, n)
	before := rp.Ref.Run()
	for c := 0; c < chunks; c++ {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		for _, st := range stages {
			for k := lo; k < hi; k++ {
				if err := st(k); err != nil {
					return err
				}
			}
		}
		after := rp.Ref.Run()
		f := estimate.Factor((before + after) / 2)
		before = after
		for _, t := range timers {
			t.fold(f, hi-lo)
		}
	}
	return nil
}

// twin is one shard's worth of the NIC — photonic core, datapath engine, DAG
// loader over a private DRAM — built with the seeds lightning.New gives
// shard 0. The step-equality check is what keeps this in sync with New.
type twin struct {
	core   *photonic.Core
	engine *datapath.Engine
	loader *dagloader.Loader
	model  *dagloader.ModelConfig
}

func newTwin(w *workload.Workload) (*twin, error) {
	cfg := w.NICConfig()
	core, err := photonic.NewCore(cfg.Lanes, photonic.CalibratedNoise(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("trace: building twin core: %w", err)
	}
	engine := datapath.NewEngine(core, cfg.Seed+1)
	loader := dagloader.NewLoader(engine, mem.New(mem.DDR4Spec(), cfg.Seed+2))
	if err := loader.RegisterModel(workload.ModelID, w.Name, w.Model); err != nil {
		return nil, fmt.Errorf("trace: registering twin model: %w", err)
	}
	mc, _ := loader.Model(workload.ModelID)
	return &twin{core: core, engine: engine, loader: loader, model: mc}, nil
}

// queryTimes is one query's replayed durations in nanoseconds, kept so the
// trace file can lay the layers out inside their parents.
type queryTimes struct {
	handleStart            int64
	handle, serve          int64
	load, decode, fc, dots []int64 // per model layer
}

// allocProbe is how many extra HandleMessage calls the allocation count is
// taken over, after the timed passes.
const allocProbe = 256

// Run performs every pass and records the replay spans.
func (rp *Replay) Run() (*Layers, error) {
	w := rp.W
	nLayers := len(w.Model.Layers)
	inputs := make([][]fixed.Code, len(w.Pool))
	frames := make([][]*nic.Message, len(w.Pool))
	for i, q := range w.Pool {
		inputs[i] = workload.Codes(q)
		msgs, err := nic.Fragment(0, workload.ModelID, q, nic.MaxFragPayload)
		if err != nil {
			return nil, fmt.Errorf("trace: fragmenting query: %w", err)
		}
		frames[i] = msgs
	}
	input := func(k int) []fixed.Code { return inputs[k%len(inputs)] }
	stamp := func(k int) []*nic.Message {
		msgs := frames[k%len(frames)]
		for _, m := range msgs {
			m.RequestID = uint32(k + 1)
		}
		return msgs
	}
	times := make([]queryTimes, rp.N)
	for k := range times {
		buf := make([]int64, 4*nLayers)
		times[k].load, times[k].decode = buf[:nLayers], buf[nLayers:2*nLayers]
		times[k].fc, times[k].dots = buf[2*nLayers:3*nLayers], buf[3*nLayers:]
	}

	// lightning.HandleMessage runs on a NIC with batching off. A live
	// batching NIC at window 1 flushes batches of one down the same serial
	// path after its delay timer; the timer is not the layer's work.
	cfg := w.NICConfig()
	cfg.Batch = lightning.BatchConfig{}
	n, err := lightning.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("trace: building twin NIC: %w", err)
	}
	if err := n.RegisterModel(workload.ModelID, w.Name, w.Model); err != nil {
		return nil, fmt.Errorf("trace: registering twin NIC model: %w", err)
	}
	handleOnce := func(k int) (time.Time, time.Duration, error) {
		msgs := stamp(k)
		start := time.Now()
		var resp *lightning.Response
		for _, m := range msgs {
			r, err := n.HandleMessage(m)
			if err != nil {
				return start, 0, fmt.Errorf("trace: HandleMessage: %w", err)
			}
			if r != nil {
				resp = r
			}
		}
		d := time.Since(start)
		if resp == nil || resp.Err {
			return start, 0, errors.New("trace: HandleMessage produced no good response")
		}
		return start, d, nil
	}
	var handle timer
	handleStage := func(k int) error {
		start, d, err := handleOnce(k)
		if err != nil {
			return err
		}
		handle.add(d)
		times[k].handleStart, times[k].handle = int64(start.Sub(rp.Rec.epoch)), int64(d)
		return nil
	}

	// dagloader.Loader.Serve, Serve's own layer loop spelled out over the
	// public entry points it calls, and the photonic dots those issue each
	// get a twin of their own.
	var twins [3]*twin
	for i := range twins {
		if twins[i], err = newTwin(w); err != nil {
			return nil, err
		}
	}
	var serve timer
	var serveSteps uint64
	serveStage := func(k int) error {
		start := time.Now()
		res, err := twins[0].loader.Serve(workload.ModelID, input(k))
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("trace: Loader.Serve: %w", err)
		}
		serve.add(d)
		times[k].serve = int64(d)
		serveSteps += res.Stats.PhotonicSteps
		return nil
	}

	// The activations every layer saw are kept for the photonic stage.
	acts := make([][][]fixed.Code, rp.N)
	var load, decode, fc timer
	var fcStats datapath.LayerStats
	layerStage := func(k int) error {
		tw := twins[1]
		act := input(k)
		acts[k] = make([][]fixed.Code, nLayers)
		for l, lc := range tw.model.Layers {
			t0 := time.Now()
			blob, ok := tw.loader.DRAM.Load(lc.WeightsKey)
			biasBlob, _ := tw.loader.DRAM.Load(lc.BiasKey)
			t1 := time.Now()
			if !ok {
				return fmt.Errorf("trace: weights %q missing from twin DRAM", lc.WeightsKey)
			}
			weights, err := dagloader.DecodeWeights(blob, lc.Out, lc.In)
			bias := dagloader.DecodeBias(biasBlob)
			t2 := time.Now()
			if err != nil {
				return fmt.Errorf("trace: DecodeWeights: %w", err)
			}
			res := tw.engine.ExecuteFCBias(weights, bias, act, lc.Activation, lc.Shift)
			t3 := time.Now()
			load.add(t1.Sub(t0))
			decode.add(t2.Sub(t1))
			fc.add(t3.Sub(t2))
			times[k].load[l], times[k].decode[l], times[k].fc[l] = int64(t1.Sub(t0)), int64(t2.Sub(t1)), int64(t3.Sub(t2))
			fcStats.Add(res.Stats)
			acts[k][l] = act
			act = datapath.RequantizeVec(res.Raw, lc.Shift)
		}
		return nil
	}

	// photonic.Core.DotPartialsInto runs over the exact sign-grouped,
	// zero-skipped operand vectors each row issues. Grouping happens outside
	// the timed region; a layer's rows are timed as one span.
	var dots timer
	var dotSteps uint64
	var g grouped
	var parts []float64
	dotStage := func(k int) error {
		for l := range w.Model.Layers {
			rows := w.Model.Layers[l].Weights
			g.reset()
			for _, row := range rows {
				g.add(row, acts[k][l])
			}
			start := time.Now()
			for r := range rows {
				for s := 0; s < 2; s++ {
					lo, hi := g.bounds[2*r+s], g.bounds[2*r+s+1]
					parts = twins[2].core.DotPartialsInto(parts, g.w[lo:hi], g.x[lo:hi])
					dotSteps += uint64(len(parts))
				}
			}
			d := time.Since(start)
			dots.add(d)
			times[k].dots[l] = int64(d)
		}
		return nil
	}

	wr, err := newWire(w, stamp)
	if err != nil {
		return nil, err
	}
	defer wr.close()

	err = rp.pass(rp.N, []stage{handleStage, serveStage, layerStage, dotStage, wr.codecStage, wr.loopbackStage},
		&handle, &serve, &load, &decode, &fc, &dots, &wr.codec, &wr.reasm, &wr.query, &wr.response)
	if err != nil {
		return nil, err
	}
	out := &Layers{
		HandleUS: handle.us(), ServeUS: serve.us(),
		LoadUS: load.us(), DecodeUS: decode.us(), FCUS: fc.us(), DotUS: dots.us(),
		CodecUS: wr.codec.us(), ReassemblyUS: wr.reasm.us(),
		LoopbackQueryUS: wr.query.us(), LoopbackRespUS: wr.response.us(),
		HandleSteps: float64(n.Metrics().PhotonicSteps) / float64(rp.N),
		ServeSteps:  float64(serveSteps) / float64(rp.N),
		FCSteps:     float64(fcStats.PhotonicSteps) / float64(rp.N),
		DotSteps:    float64(dotSteps) / float64(rp.N),
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for k := rp.N; k < rp.N+allocProbe; k++ {
		if _, _, err := handleOnce(k); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	out.HandleAllocs = float64(ms1.Mallocs-ms0.Mallocs) / allocProbe
	out.HandleAllocBytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / allocProbe
	if err := n.Close(); err != nil {
		return nil, fmt.Errorf("trace: closing twin NIC: %w", err)
	}

	if w.Batch.Enabled() {
		if err := rp.batchTwins(input, out); err != nil {
			return nil, err
		}
	}
	rp.layOut(times)
	return out, nil
}

// grouped holds one layer's operands the way runDot and runDotBatch issue
// them: per group, the non-zero products' weight magnitudes and activation
// codes, positive-weight group first, then negative.
type grouped struct {
	w, x   []fixed.Code
	bounds []int
}

func (g *grouped) reset() {
	g.w, g.x = g.w[:0], g.x[:0]
	g.bounds = append(g.bounds[:0], 0)
}

// add appends one weight row against one activation vector as two groups.
func (g *grouped) add(row []fixed.Signed, x []fixed.Code) {
	for _, neg := range []bool{false, true} {
		for i, wi := range row {
			if wi.Mag == 0 || x[i] == 0 || wi.Neg != neg {
				continue
			}
			g.w, g.x = append(g.w, wi.Mag), append(g.x, x[i])
		}
		g.bounds = append(g.bounds, len(g.w))
	}
}

// batchTwins times the matrix entry points the batching serve path uses, on
// consecutive groups of MaxBatch queries.
func (rp *Replay) batchTwins(input func(k int) []fixed.Code, out *Layers) error {
	w := rp.W
	size := w.Batch.MaxBatch
	groups := rp.N / size
	if groups == 0 {
		return fmt.Errorf("trace: %d queries cannot fill one batch of %d", rp.N, size)
	}
	batch := func(gi int) [][]fixed.Code {
		xs := make([][]fixed.Code, size)
		for i := range xs {
			xs[i] = input(gi*size + i)
		}
		return xs
	}
	var twins [3]*twin
	for i := range twins {
		var err error
		if twins[i], err = newTwin(w); err != nil {
			return err
		}
	}

	var serve timer
	serveStage := func(gi int) error {
		xs := batch(gi)
		start := time.Now()
		_, _, err := twins[0].loader.ServeBatch(workload.ModelID, xs)
		serve.add(time.Since(start))
		if err != nil {
			return fmt.Errorf("trace: Loader.ServeBatch: %w", err)
		}
		return nil
	}

	nLayers := len(w.Model.Layers)
	acts := make([][][][]fixed.Code, groups)
	var fc timer
	fcStage := func(gi int) error {
		xs := batch(gi)
		acts[gi] = make([][][]fixed.Code, nLayers)
		for l, lc := range twins[1].model.Layers {
			ql := &w.Model.Layers[l]
			start := time.Now()
			res := twins[1].engine.ExecuteFCBiasBatch(ql.Weights, ql.Bias, xs, lc.Activation, lc.Shift)
			fc.add(time.Since(start))
			acts[gi][l] = xs
			next := make([][]fixed.Code, size)
			for qi, pq := range res.PerQuery {
				next[qi] = datapath.RequantizeVec(pq.Raw, lc.Shift)
			}
			xs = next
		}
		return nil
	}

	var dots timer
	var g grouped
	var parts []float64
	dotStage := func(gi int) error {
		for l := range w.Model.Layers {
			for _, row := range w.Model.Layers[l].Weights {
				g.reset()
				for _, x := range acts[gi][l] {
					g.add(row, x)
				}
				start := time.Now()
				parts = twins[2].core.DotPartialsBatchInto(parts, g.w, g.x, g.bounds)
				dots.add(time.Since(start))
			}
		}
		return nil
	}

	if err := rp.pass(groups, []stage{serveStage, fcStage, dotStage}, &serve, &fc, &dots); err != nil {
		return err
	}
	out.ServeBatchUS = serve.us() / float64(size)
	out.FCBatchUS = fc.us() / float64(size)
	out.DotBatchUS = dots.us() / float64(size)
	return nil
}

// wire times the pieces of the wire path that have public entry points: the
// codec, the reassembler, and the batch seam on a loopback socket pair — a
// connected client socket and a server socket, both seen through the seam
// exactly as the client and the serve loop see theirs.
type wire struct {
	stamp func(k int) []*nic.Message
	resp  nic.Response
	re    *nic.Reassembler

	srv, cli *net.UDPConn
	bs, bc   netbatch.BatchConn
	rx       []netbatch.Message
	reply    []netbatch.Message

	buf, rbuf []byte
	offs      []int
	tx        []netbatch.Message

	codec, reasm, query, response timer
}

func newWire(w *workload.Workload, stamp func(k int) []*nic.Message) (*wire, error) {
	wr := &wire{
		stamp: stamp,
		resp:  nic.Response{ModelID: workload.ModelID, Probs: make([]uint8, w.Model.Sizes[len(w.Model.Sizes)-1])},
		re:    nic.NewReassembler(256),
		rx:    netbatch.MakeMessages(16, 2048),
	}
	frame, err := nic.AppendResponseFrame(nil, &wr.resp)
	if err != nil {
		return nil, fmt.Errorf("trace: encoding loopback reply: %w", err)
	}
	wr.reply = []netbatch.Message{{Buf: frame, N: len(frame)}}
	if wr.srv, err = net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		return nil, fmt.Errorf("trace: loopback server socket: %w", err)
	}
	if err := wr.srv.SetReadBuffer(8 << 20); err != nil {
		wr.close()
		return nil, fmt.Errorf("trace: sizing loopback socket: %w", err)
	}
	if wr.cli, err = net.DialUDP("udp4", nil, wr.srv.LocalAddr().(*net.UDPAddr)); err != nil {
		wr.close()
		return nil, fmt.Errorf("trace: loopback client socket: %w", err)
	}
	wr.bs, wr.bc = netbatch.Wrap(wr.srv, nil), netbatch.WrapConn(wr.cli, nil)
	return wr, nil
}

func (wr *wire) close() {
	if wr.srv != nil {
		wr.srv.Close()
	}
	if wr.cli != nil {
		wr.cli.Close()
	}
}

// encode serializes query k's frames back to back into wr.buf, wr.offs
// marking the frame boundaries.
func (wr *wire) encode(msgs []*nic.Message) error {
	wr.buf, wr.offs = wr.buf[:0], wr.offs[:0]
	var err error
	for _, m := range msgs {
		wr.offs = append(wr.offs, len(wr.buf))
		if wr.buf, err = m.AppendEncode(wr.buf); err != nil {
			return fmt.Errorf("trace: encoding query: %w", err)
		}
	}
	wr.offs = append(wr.offs, len(wr.buf))
	return nil
}

// codecStage times the codec work one query costs end to end — the client
// encoding its frames, the server decoding them, the server encoding the
// response, the client decoding it — and then the query's frames through
// the reassembler.
func (wr *wire) codecStage(k int) error {
	msgs := wr.stamp(k)
	wr.resp.RequestID = uint32(k + 1)
	start := time.Now()
	if err := wr.encode(msgs); err != nil {
		return err
	}
	for i := range msgs {
		var d nic.Message
		if _, err := d.DecodeNext(wr.buf[wr.offs[i]:wr.offs[i+1]]); err != nil {
			return fmt.Errorf("trace: decoding query: %w", err)
		}
	}
	var err error
	if wr.rbuf, err = nic.AppendResponseFrame(wr.rbuf[:0], &wr.resp); err != nil {
		return fmt.Errorf("trace: encoding response: %w", err)
	}
	var d nic.Message
	if _, err := d.DecodeNext(wr.rbuf); err != nil {
		return fmt.Errorf("trace: decoding response: %w", err)
	}
	if _, err := nic.ParseResponse(&d); err != nil {
		return fmt.Errorf("trace: parsing response: %w", err)
	}
	mid := time.Now()
	done := false
	for _, m := range msgs {
		if _, _, done, err = wr.re.Offer(m); err != nil {
			return fmt.Errorf("trace: reassembling query: %w", err)
		}
	}
	end := time.Now()
	if !done {
		return errors.New("trace: reassembler did not release the query")
	}
	wr.codec.add(mid.Sub(start))
	wr.reasm.add(end.Sub(mid))
	return nil
}

// loopbackStage sends query k's datagram train from the client socket to
// the server socket and one response datagram back.
func (wr *wire) loopbackStage(k int) error {
	msgs := wr.stamp(k)
	if err := wr.encode(msgs); err != nil {
		return err
	}
	wr.tx = wr.tx[:0]
	for i := range msgs {
		wr.tx = append(wr.tx, netbatch.Message{Buf: wr.buf[wr.offs[i]:wr.offs[i+1]], N: wr.offs[i+1] - wr.offs[i]})
	}
	deadline := time.Now().Add(time.Second)
	if err := wr.bs.SetReadDeadline(deadline); err != nil {
		return fmt.Errorf("trace: arming loopback deadline: %w", err)
	}
	if err := wr.bc.SetReadDeadline(deadline); err != nil {
		return fmt.Errorf("trace: arming loopback deadline: %w", err)
	}
	start := time.Now()
	if _, err := wr.bc.WriteBatch(wr.tx); err != nil {
		return fmt.Errorf("trace: loopback write: %w", err)
	}
	for got := 0; got < len(wr.tx); {
		cnt, err := wr.bs.ReadBatch(wr.rx)
		if err != nil {
			return fmt.Errorf("trace: loopback read after %d of %d datagrams: %w", got, len(wr.tx), err)
		}
		got += cnt
	}
	mid := time.Now()
	wr.reply[0].Addr = wr.rx[0].Addr
	if _, err := wr.bs.WriteBatch(wr.reply); err != nil {
		return fmt.Errorf("trace: loopback reply write: %w", err)
	}
	if _, err := wr.bc.ReadBatch(wr.rx[:1]); err != nil {
		return fmt.Errorf("trace: loopback reply read: %w", err)
	}
	end := time.Now()
	wr.query.add(mid.Sub(start))
	wr.response.add(end.Sub(mid))
	return nil
}

// layOut records the replayed layers as spans. Each query's HandleMessage
// span keeps the wall-clock interval its pass observed; the spans nested in
// it carry their own passes' durations, placed back to back from their
// parent's start.
func (rp *Replay) layOut(times []queryTimes) {
	for k := range times {
		t := &times[k]
		q := int32(k)
		h := rp.Rec.AddNS("lightning.HandleMessage", -1, q, t.handleStart, t.handleStart+t.handle)
		s := rp.Rec.AddNS("dagloader.Loader.Serve", h, q, t.handleStart, t.handleStart+t.serve)
		at := t.handleStart
		for l := range t.fc {
			rp.Rec.AddNS("mem.DRAM.Load", s, q, at, at+t.load[l])
			at += t.load[l]
			rp.Rec.AddNS("dagloader.DecodeWeights", s, q, at, at+t.decode[l])
			at += t.decode[l]
			f := rp.Rec.AddNS("datapath.Engine.ExecuteFCBias", s, q, at, at+t.fc[l])
			rp.Rec.AddNS("photonic.Core.DotPartialsInto", f, q, at, at+t.dots[l])
			at += t.fc[l]
		}
	}
}
