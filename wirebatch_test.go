package lightning

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// countDecodableFrames walks data with the same strict length-prefix policy
// the serve path uses and returns how many complete frames decode before
// the first error.
func countDecodableFrames(data []byte) int {
	n := 0
	for len(data) > 0 {
		var m Message
		consumed, err := m.DecodeNext(data)
		if err != nil {
			return n
		}
		data = data[consumed:]
		n++
	}
	return n
}

// sentFrames splits the response datagrams pc recorded (RecordWrites) into
// their frames, walking each datagram as every receiver does.
func sentFrames(t testing.TB, pc *fault.StubConn) [][]byte {
	t.Helper()
	var out [][]byte
	for _, d := range pc.Sent() {
		for len(d) > 0 {
			var m Message
			k, err := m.DecodeNext(d)
			if err != nil {
				t.Fatalf("a response datagram holds a malformed frame: %v", err)
			}
			out = append(out, d[:k])
			d = d[k:]
		}
	}
	return out
}

// TestServeUDPDeadlineArmsPerBatchNotPerDatagram is the deadline-cadence
// regression test: the batched serve loop arms the read deadline once per
// batch read, so the deadline syscalls for N buffered datagrams collapse
// from ~N (the single-message loop's cost) to ~N/RxBatch.
func TestServeUDPDeadlineArmsPerBatchNotPerDatagram(t *testing.T) {
	const width = 64
	const sent = 64
	arm := func(fallback bool) (uint64, uint64) {
		n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if fallback {
			n.rail = netbatch.WrapFallback
		}
		if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
			t.Fatal(err)
		}
		pc := fault.NewStubConn()
		pc.RecordWrites = true
		for i := 0; i < sent; i++ {
			pc.Enqueue(encodeQuery(t, uint32(i+1), 4, make([]byte, width)))
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // reader drains the whole queue, then exits on the idle tick
		if err := n.ServeUDP(ctx, pc); err != nil {
			t.Fatalf("ServeUDP: %v", err)
		}
		if got := len(sentFrames(t, pc)); got != sent {
			t.Fatalf("responses = %d, want %d", got, sent)
		}
		return pc.DeadlineCalls(), n.Metrics().Serve.RxBatchSize.Sum
	}
	batchArms, batchRx := arm(false)
	fallbackArms, _ := arm(true)
	if batchRx != sent {
		t.Errorf("rx histogram Sum = %d, want %d datagrams", batchRx, sent)
	}
	if netbatch.FallbackForced() {
		// The LIGHTNING_NETBATCH=fallback CI leg forces BOTH runs onto the
		// single-message path; the cadence reduction is a fast-path claim.
		t.Skip("deadline cadence requires the batch path; fallback forced via env")
	}
	// Batched: ceil(64/16) data reads + one timeout read = ~5 arms. The
	// fallback reads one datagram per call, so it pays >= sent arms.
	if fallbackArms < sent {
		t.Errorf("fallback deadline arms = %d, want >= %d (one per datagram)", fallbackArms, sent)
	}
	if batchArms*4 >= fallbackArms {
		t.Errorf("batched deadline arms = %d vs fallback %d: want >= 4x reduction",
			batchArms, fallbackArms)
	}
}

// TestWireFallbackByteIdenticalResponses is the differential test for the
// portable fallback: identical seeded traffic — single frames, coalesced
// multi-frame datagrams, a fragment train, garbage, and a truncated
// coalesced tail — must produce byte-identical response streams, frame by
// frame, whether the serve loop reads through the batch seam's native path
// or the forced single-message fallback. (How the frames share datagrams
// differs: the fallback reads, and so flushes, one datagram at a time.)
func TestWireFallbackByteIdenticalResponses(t *testing.T) {
	const width = 64
	traffic := func() [][]byte {
		var dgrams [][]byte
		bright := make([]byte, width)
		for i := 0; i < width/2; i++ {
			bright[i] = 200
		}
		// Three plain single-frame queries.
		dgrams = append(dgrams,
			encodeQuery(t, 1, 4, make([]byte, width)),
			encodeQuery(t, 2, 4, bright),
			encodeQuery(t, 3, 4, make([]byte, width)))
		// One datagram carrying three coalesced frames.
		co := append([]byte(nil), encodeQuery(t, 4, 4, bright)...)
		co = append(co, encodeQuery(t, 5, 4, make([]byte, width))...)
		co = append(co, encodeQuery(t, 6, 4, bright)...)
		dgrams = append(dgrams, co)
		// Unknown model: a deterministic Err response.
		dgrams = append(dgrams, encodeQuery(t, 7, 9, make([]byte, width)))
		// Pure garbage: dropped without a response.
		dgrams = append(dgrams, []byte{0xde, 0xad, 0xbe, 0xef})
		// Valid frame followed by a truncated tail: one response, strict
		// drop of the rest.
		tail := append([]byte(nil), encodeQuery(t, 8, 4, bright)...)
		tail = append(tail, 0x4c, 0x50, 0x01)
		dgrams = append(dgrams, tail)
		// A fragmented query (payload too wide for the model, so the
		// reassembled whole earns a deterministic Err response).
		frags, err := nic.Fragment(9, 4, make([]byte, 3000), nic.MaxFragPayload)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range frags {
			raw, err := m.AppendEncode(nil)
			if err != nil {
				t.Fatal(err)
			}
			dgrams = append(dgrams, raw)
		}
		return dgrams
	}

	run := func(fallback bool) ([][]byte, Metrics) {
		n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		if fallback {
			n.rail = netbatch.WrapFallback
		}
		if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
			t.Fatal(err)
		}
		pc := fault.NewStubConn()
		pc.RecordWrites = true
		for _, d := range traffic() {
			pc.Enqueue(d)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := n.ServeUDP(ctx, pc); err != nil {
			t.Fatalf("ServeUDP (fallback=%v): %v", fallback, err)
		}
		return sentFrames(t, pc), n.Metrics()
	}

	fastSent, fastM := run(false)
	slowSent, slowM := run(true)
	if len(fastSent) == 0 {
		t.Fatal("fast path produced no responses")
	}
	if len(fastSent) != len(slowSent) {
		t.Fatalf("response counts differ: fast %d, fallback %d", len(fastSent), len(slowSent))
	}
	for i := range fastSent {
		if !bytes.Equal(fastSent[i], slowSent[i]) {
			t.Errorf("response %d differs:\n fast     %x\n fallback %x", i, fastSent[i], slowSent[i])
		}
	}
	if fastM.Served != slowM.Served {
		t.Errorf("Served differs: fast %d, fallback %d", fastM.Served, slowM.Served)
	}
	for _, pair := range [][3]uint64{
		{fastM.Serve.CoalescedFrames, slowM.Serve.CoalescedFrames, 2},
		{fastM.Serve.OversizedCoalesce, slowM.Serve.OversizedCoalesce, 1},
		{fastM.Serve.DecodeErrors, slowM.Serve.DecodeErrors, 1},
	} {
		if pair[0] != pair[2] || pair[1] != pair[2] {
			t.Errorf("drop accounting differs or is wrong: fast %d, fallback %d, want %d",
				pair[0], pair[1], pair[2])
		}
	}
}

// TestWireOffloadDifferential runs one mixed stream over loopback UDP three
// ways — the fast path with segmentation offload, the fast path with it
// switched off, and the portable fallback — and requires identical
// responses and identical per-reason counters. The stream: a fragment train
// with a corrupted middle fragment (a decode error, the rest left pending
// in reassembly), eight 64-byte queries from one conn (one segmented send,
// one GRO buffer), eight more with the fourth corrupted (inside one GRO
// buffer it costs only itself), and a 150 KB query as 109 fragments whose
// last is short.
func TestWireOffloadDifferential(t *testing.T) {
	const width, wide = 64, 150528
	frames := func(id uint32, modelID uint16, payload []byte) [][]byte {
		msgs, err := nic.Fragment(id, modelID, payload, nic.MaxFragPayload)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, m := range msgs {
			raw, err := m.AppendEncode(nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, raw)
		}
		return out
	}
	corrupt := func(d []byte) []byte {
		d = append([]byte(nil), d...)
		d[0] ^= 0xff
		return d
	}
	query := func(id uint32) []byte {
		p := make([]byte, width)
		for i := int(id%2) * width / 2; i < int(id%2+1)*width/2; i++ {
			p[i] = 200
		}
		return encodeQuery(t, id, 4, p)
	}
	train := frames(21, 5, make([]byte, 9000))
	train[3] = corrupt(train[3])
	var burst, hurt [][]byte
	for id := uint32(1); id <= 8; id++ {
		burst = append(burst, query(id))
		q := query(id + 10)
		if id == 4 {
			q = corrupt(q)
		}
		hurt = append(hurt, q)
	}
	image := make([]byte, wide)
	for i := wide / 2; i < wide; i++ {
		image[i] = 200
	}
	big := frames(31, 5, image)
	if last := big[len(big)-1]; len(big) != 109 || len(last) >= len(big[0]) {
		t.Fatalf("150 KB query is %d fragments, last %d bytes of %d", len(big), len(last), len(big[0]))
	}
	// Each step leaves in one WriteBatch; the next waits for its replies.
	steps := []struct {
		dgrams  [][]byte
		replies int
	}{
		{append(train, burst...), 8},
		{hurt, 7},
		{big, 1},
	}
	dgrams := 0
	for _, st := range steps {
		dgrams += len(st.dgrams)
	}

	type counters struct {
		Served, DecodeErrors, OversizedCoalesce, CoalescedFrames, WriteErrors, Truncated uint64
		ReassemblyDrops, ReassemblyExpired, ReassemblyOversize, RxDatagrams              uint64
		PendingReassembly                                                                int
	}
	run := func(mode string) (map[uint32][]byte, counters, ServeDrops) {
		n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 9, ReassemblyTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		switch mode {
		case "no offload":
			n.rail = func(pc net.PacketConn, ctr *netbatch.Counters) netbatch.BatchConn {
				bc := netbatch.Wrap(pc, ctr)
				netbatch.DisableOffload(bc)
				return bc
			}
		case "fallback":
			n.rail = netbatch.WrapFallback
		}
		if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterModel(5, "wide", halvesModel(wide)); err != nil {
			t.Fatal(err)
		}
		pc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		if err := pc.SetReadBuffer(4 << 20); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- n.ServeUDP(ctx, pc) }()
		conn, err := net.DialUDP("udp4", nil, pc.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var bc netbatch.BatchConn
		if mode == "fallback" {
			bc = netbatch.WrapConnFallback(conn, nil)
		} else {
			bc = netbatch.WrapConn(conn, nil)
			if mode == "no offload" {
				netbatch.DisableOffload(bc)
			}
		}
		if err := bc.SetReadDeadline(time.Now().Add(20 * time.Second)); err != nil {
			t.Fatal(err)
		}
		resp := make(map[uint32][]byte)
		rx := netbatch.MakeMessages(16, 2048)
		for _, st := range steps {
			out := make([]netbatch.Message, len(st.dgrams))
			for i, d := range st.dgrams {
				out[i] = netbatch.Message{Buf: d, N: len(d)}
			}
			if _, err := bc.WriteBatch(out); err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			for want := len(resp) + st.replies; len(resp) < want; {
				k, err := bc.ReadBatch(rx)
				if err != nil {
					t.Fatalf("%s: %d of %d responses: %v", mode, len(resp), want, err)
				}
				for _, m := range rx[:k] {
					for data := m.Bytes(); len(data) > 0; {
						var reply Message
						consumed, err := reply.DecodeNext(data)
						if err != nil {
							t.Fatalf("%s: undecodable response: %v", mode, err)
						}
						if r, err := nic.ParseResponse(&reply); err != nil || r.Err {
							t.Fatalf("%s: response %d is an error (%v)", mode, reply.RequestID, err)
						}
						resp[reply.RequestID] = append([]byte(nil), data[:consumed]...)
						data = data[consumed:]
					}
				}
			}
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("%s: ServeUDP: %v", mode, err)
		}
		m := n.Metrics()
		s := m.Serve
		return resp, counters{m.Served, s.DecodeErrors, s.OversizedCoalesce, s.CoalescedFrames, s.WriteErrors, s.Truncated,
			m.ReassemblyDrops, m.ReassemblyExpired, m.ReassemblyOversize, s.RxBatchSize.Sum, m.PendingReassembly}, s
	}

	offResp, offCtr, offServe := run("offload")
	want := counters{Served: 16, DecodeErrors: 2, RxDatagrams: uint64(dgrams), PendingReassembly: 1}
	if offCtr != want {
		t.Fatalf("offload counters %+v, want %+v", offCtr, want)
	}
	live := netbatch.FastPathAvailable() && !netbatch.FallbackForced()
	if offServe.GSO != live || offServe.GRO != live {
		t.Errorf("offload run reports GSO %v GRO %v, want %v", offServe.GSO, offServe.GRO, live)
	}
	// Six segmented sends (the train and each burst one apiece, the image
	// three) arrive as six GRO buffers, so at most six reads: the corrupted
	// query was walked out of a coalesced buffer, not read on its own.
	if live && offServe.RxBatchSize.Count > 6 {
		t.Errorf("offload run read %d batches for six segmented sends", offServe.RxBatchSize.Count)
	}
	for _, mode := range []string{"no offload", "fallback"} {
		resp, ctr, s := run(mode)
		if ctr != offCtr {
			t.Errorf("%s counters %+v, offload %+v", mode, ctr, offCtr)
		}
		if s.GSO || s.GRO {
			t.Errorf("%s run reports GSO %v GRO %v, want both off", mode, s.GSO, s.GRO)
		}
		if len(resp) != len(offResp) {
			t.Errorf("%s: %d responses, offload %d", mode, len(resp), len(offResp))
		}
		for id, b := range offResp {
			if !bytes.Equal(resp[id], b) {
				t.Errorf("%s: response %d = %x, offload %x", mode, id, resp[id], b)
			}
		}
	}
}

// TestServeWireMetrics pins the rx-side wire accounting: batch-size
// histograms, coalesced-frame and oversized-tail counters, and the
// seam-level syscall tallies all land in Metrics.Serve.
func TestServeWireMetrics(t *testing.T) {
	const width = 64
	n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	pc := fault.NewStubConn()
	pc.RecordWrites = true
	co := append([]byte(nil), encodeQuery(t, 1, 4, make([]byte, width))...)
	co = append(co, encodeQuery(t, 2, 4, make([]byte, width))...)
	co = append(co, encodeQuery(t, 3, 4, make([]byte, width))...)
	pc.Enqueue(co)
	tail := append([]byte(nil), encodeQuery(t, 4, 4, make([]byte, width))...)
	pc.Enqueue(append(tail, 0x00))
	pc.Enqueue([]byte{0xba, 0xad})
	pc.Enqueue(encodeQuery(t, 5, 4, make([]byte, width)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := n.ServeUDP(ctx, pc); err != nil {
		t.Fatalf("ServeUDP: %v", err)
	}
	m := n.Metrics()
	if m.Served != 5 {
		t.Errorf("Served = %d, want 5", m.Served)
	}
	if got := len(sentFrames(t, pc)); got != 5 {
		t.Errorf("responses = %d, want 5", got)
	}
	s := m.Serve
	if s.CoalescedFrames != 2 {
		t.Errorf("CoalescedFrames = %d, want 2", s.CoalescedFrames)
	}
	if s.OversizedCoalesce != 1 {
		t.Errorf("OversizedCoalesce = %d, want 1", s.OversizedCoalesce)
	}
	if s.DecodeErrors != 1 {
		t.Errorf("DecodeErrors = %d, want 1", s.DecodeErrors)
	}
	if s.RxBatchSize.Sum != 4 || s.RxBatchSize.Count == 0 {
		t.Errorf("RxBatchSize = %+v, want Sum 4 over >= 1 batch", s.RxBatchSize)
	}
	// Every response goes to the one client, so each flush is one datagram.
	if s.TxBatchSize.Sum != s.TxBatchSize.Count || s.TxBatchSize.Count == 0 || s.TxBatchSize.Count > 4 {
		t.Errorf("TxBatchSize = %+v, want one datagram in each of 1 to 4 flushes", s.TxBatchSize)
	}
	if s.RxSyscalls == 0 || s.TxSyscalls == 0 {
		t.Errorf("seam syscall counters empty: rx %d, tx %d", s.RxSyscalls, s.TxSyscalls)
	}
	// Amortization claims hold only when the seam actually batches; the
	// LIGHTNING_NETBATCH=fallback CI leg runs this test on the
	// single-message path, where every read moves one datagram by design.
	if !netbatch.FallbackForced() {
		if mean := s.RxBatchSize.Mean(); mean <= 1 {
			t.Errorf("rx batch mean = %.2f, want > 1 (the whole burst in few reads)", mean)
		}
		if s.RxSyscalls >= s.RxBatchSize.Sum+2 {
			t.Errorf("RxSyscalls = %d for %d datagrams: batching amortized nothing",
				s.RxSyscalls, s.RxBatchSize.Sum)
		}
	}
}

// FuzzCoalescedFrameDecode feeds adversarial datagrams — truncated headers,
// stretched length prefixes, valid frames with corrupt tails — through
// ServeUDP and so the front door's coalesced-frame walk. Invariants: never panic, and never
// emit more responses than the datagram has fully-decodable frames (in
// particular, a datagram whose first frame is malformed gets none).
func FuzzCoalescedFrameDecode(f *testing.F) {
	const width = 8
	mustEncode := func(id uint32, modelID uint16, payload []byte) []byte {
		raw, err := (&Message{RequestID: id, ModelID: modelID, Payload: payload}).AppendEncode(nil)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	one := mustEncode(1, 4, make([]byte, width))
	two := append(append([]byte(nil), one...), mustEncode(2, 4, make([]byte, width))...)
	f.Add([]byte{})
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-3])                // truncated coalesced tail
	f.Add(append([]byte(nil), two[5:]...)) // mid-frame start
	f.Add([]byte{0x4c, 0x50, 0x01, 0x00, 0xff, 0xff})
	n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 13})
	if err != nil {
		f.Fatal(err)
	}
	if err := n.RegisterModel(4, "halves", SyntheticHalvesModel(width)); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pc := fault.NewStubConn()
		pc.RecordWrites = true
		pc.Enqueue(data)
		valid := countDecodableFrames(data)
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // the reader walks the datagram, then exits on the idle tick
		if err := n.ServeUDP(ctx, pc); err != nil {
			t.Fatal(err)
		}
		writes := len(sentFrames(t, pc))
		if valid == 0 && writes != 0 {
			t.Fatalf("undecodable datagram %x produced %d responses", data, writes)
		}
		if writes > valid {
			t.Fatalf("datagram %x: %d responses for %d decodable frames — a partial frame was served",
				data, writes, valid)
		}
	})
}
