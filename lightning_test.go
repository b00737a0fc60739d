package lightning

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/nic"
	"github.com/lightning-smartnic/lightning/internal/nn"
)

func trainedModel(t *testing.T) (*TrainedModel, *Dataset) {
	t.Helper()
	set := AnomalyDataset(500, 42)
	train, test := set.Split(0.8)
	q, floatAcc, intAcc, err := Train(train, TrainOptions{Hidden: []int{16, 8}, Epochs: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if floatAcc < 0.9 || intAcc < 0.85 {
		t.Fatalf("training accuracies too low: float=%.2f int8=%.2f", floatAcc, intAcc)
	}
	return q, test
}

func TestTrainValidation(t *testing.T) {
	if _, _, _, err := Train(&Dataset{}, TrainOptions{}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestNICHandleMessage(t *testing.T) {
	q, test := trainedModel(t)
	n, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(1, "anomaly", q); err != nil {
		t.Fatal(err)
	}
	agree := 0
	total := 30
	for i := 0; i < total; i++ {
		payload := make([]byte, len(test.Examples[i].X))
		for j, c := range test.Examples[i].X {
			payload[j] = byte(c)
		}
		resp, err := n.HandleMessage(&Message{RequestID: uint32(i), ModelID: 1, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		if resp.RequestID != uint32(i) {
			t.Fatal("request id mismatch")
		}
		digital, _ := q.Infer(test.Examples[i].X)
		if int(resp.Class) == digital {
			agree++
		}
	}
	if agree < total*8/10 {
		t.Errorf("photonic/digital agreement = %d/%d", agree, total)
	}
	if n.Served() != uint64(total) {
		t.Errorf("Served = %d", n.Served())
	}
}

func TestNICHandleMessageErrors(t *testing.T) {
	n, _ := New(DefaultConfig())
	resp, err := n.HandleMessage(&Message{ModelID: 99, Payload: []byte{1}})
	if err == nil {
		t.Error("unknown model served")
	}
	if resp == nil || !resp.Err {
		t.Error("error response missing")
	}
	if _, err := n.HandleMessage(&Message{Flags: nic.FlagResponse}); err == nil {
		t.Error("response message accepted as query")
	}
}

func TestConfigDefaults(t *testing.T) {
	// Zero or negative lane counts fall back to the prototype's 2.
	n, err := New(Config{Lanes: 0, Noiseless: true})
	if err != nil {
		t.Fatal(err)
	}
	if n == nil {
		t.Fatal("nil NIC")
	}
	if cfg := DefaultConfig(); cfg.Lanes != 2 {
		t.Errorf("default lanes = %d", cfg.Lanes)
	}
}

func TestClientDialError(t *testing.T) {
	if _, err := Dial("not a host:port:extra"); err == nil {
		t.Error("bad address accepted")
	}
}

func TestClientTimeout(t *testing.T) {
	// A socket nobody answers: Infer must return a timeout, not hang.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	client, err := Dial(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 100 * time.Millisecond
	start := time.Now()
	if _, _, err := client.Infer(1, []Code{1}); err == nil {
		t.Error("silent server produced a response")
	}
	if time.Since(start) > time.Second {
		t.Error("timeout not honoured")
	}
}

func TestServeUDPIgnoresGarbageDatagrams(t *testing.T) {
	q, test := trainedModel(t)
	n, _ := New(DefaultConfig())
	if err := n.RegisterModel(1, "anomaly", q); err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- n.ServeUDP(ctx, pc) }()

	// Garbage datagram first; the server must survive and keep serving.
	raw, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{0xde, 0xad})
	raw.Close()

	client, err := Dial(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	resp, _, err := client.Infer(1, test.Examples[0].X)
	if err != nil || resp.Err {
		t.Fatalf("server wedged after garbage: %v", err)
	}
	cancel()
	<-done
}

func TestNICMetrics(t *testing.T) {
	q, test := trainedModel(t)
	n, _ := New(DefaultConfig())
	if err := n.RegisterModel(1, "anomaly", q); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		payload := make([]byte, len(test.Examples[i].X))
		for j, c := range test.Examples[i].X {
			payload[j] = byte(c)
		}
		if _, err := n.HandleMessage(&Message{RequestID: uint32(i), ModelID: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	m := n.Metrics()
	if m.Served != 3 {
		t.Errorf("Served = %d", m.Served)
	}
	if m.Reconfigurations != 3*3 { // three layers per query
		t.Errorf("Reconfigurations = %d, want 9", m.Reconfigurations)
	}
	if m.PhotonicSteps == 0 || m.ComputeCycles == 0 || m.DatapathCycles == 0 {
		t.Errorf("cycle totals empty: %+v", m)
	}
	if m.DRAMReads == 0 || m.DRAMReadBytes == 0 {
		t.Errorf("DRAM counters empty: %+v", m)
	}
	if m.PendingReassembly != 0 {
		t.Errorf("PendingReassembly = %d", m.PendingReassembly)
	}
}

func TestServeUDPWorkersConcurrentClients(t *testing.T) {
	q, test := trainedModel(t)
	n, _ := New(DefaultConfig())
	if err := n.RegisterModel(1, "anomaly", q); err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n.ServeUDPWorkers(ctx, pc, 4) }()

	const clients = 4
	const perClient = 8
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			client, err := Dial(pc.LocalAddr().String())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < perClient; i++ {
				ex := test.Examples[(c*perClient+i)%len(test.Examples)]
				resp, _, err := client.Infer(1, ex.X)
				if err != nil {
					errs <- err
					return
				}
				if resp.Err {
					errs <- context.DeadlineExceeded
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("ServeUDPWorkers returned %v", err)
	}
	if n.Served() != clients*perClient {
		t.Errorf("Served = %d, want %d", n.Served(), clients*perClient)
	}
}

func TestFragmentedQueryRoundTrip(t *testing.T) {
	// A query wider than one fragment (2000 inputs > 1400 bytes): the
	// client fragments, the NIC's packet assembler reassembles, and the
	// datapath serves the full vector. The hand-built model's two output
	// neurons each sum one half of the input, so correctness of the
	// reassembled payload is visible in the answer.
	const width = 2000
	mk := func(lo, hi int) []fixed.Signed {
		row := make([]fixed.Signed, width)
		for i := lo; i < hi; i++ {
			row[i] = fixed.Signed{Mag: 255}
		}
		return row
	}
	q := &TrainedModel{
		Sizes: []int{width, 2},
		Layers: []nn.QuantizedLayer{{
			Weights: [][]fixed.Signed{mk(0, width/2), mk(width/2, width)},
			Bias:    []fixed.Acc{0, 0},
			Shift:   10,
			Final:   true,
			WScale:  fixed.Scale{Max: 1},
		}},
	}

	n, _ := New(Config{Lanes: 2, Noiseless: true, Seed: 4})
	if err := n.RegisterModel(9, "halves", q); err != nil {
		t.Fatal(err)
	}
	// Query: second half bright → class 1 must win.
	query := make([]byte, width)
	for i := width / 2; i < width; i++ {
		query[i] = 200
	}
	msgs, err := nic.Fragment(123, 9, query, nic.MaxFragPayload)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) < 2 {
		t.Fatalf("expected fragmentation, got %d messages", len(msgs))
	}
	var resp *Response
	for _, m := range msgs {
		r, err := n.HandleMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		if r != nil {
			resp = r
		}
	}
	if resp == nil {
		t.Fatal("no response after final fragment")
	}
	if resp.Class != 1 {
		t.Errorf("class = %d, want 1 (second half bright)", resp.Class)
	}
	if resp.RequestID != 123 {
		t.Errorf("request id = %d", resp.RequestID)
	}
}

func TestServeUDPFragmentedQuery(t *testing.T) {
	// A 2000-input query exceeds one fragment: the client fragments over
	// the socket, the server reassembles, and the answer is correct.
	const width = 2000
	mk := func(lo, hi int) []fixed.Signed {
		row := make([]fixed.Signed, width)
		for i := lo; i < hi; i++ {
			row[i] = fixed.Signed{Mag: 255}
		}
		return row
	}
	q := &TrainedModel{
		Sizes: []int{width, 2},
		Layers: []nn.QuantizedLayer{{
			Weights: [][]fixed.Signed{mk(0, width/2), mk(width/2, width)},
			Bias:    []fixed.Acc{0, 0},
			Shift:   10,
			Final:   true,
			WScale:  fixed.Scale{Max: 1},
		}},
	}
	n, _ := New(Config{Lanes: 2, Noiseless: true, Seed: 8})
	if err := n.RegisterModel(7, "halves", q); err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- n.ServeUDP(ctx, pc) }()

	client, err := Dial(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	query := make([]Code, width)
	for i := 0; i < width/2; i++ {
		query[i] = 200 // first half bright → class 0
	}
	resp, _, err := client.Infer(7, query)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Class != 0 {
		t.Errorf("class = %d, want 0", resp.Class)
	}
	cancel()
	<-done
}

func TestServeUDPEndToEnd(t *testing.T) {
	q, test := trainedModel(t)
	n, _ := New(DefaultConfig())
	if err := n.RegisterModel(1, "anomaly", q); err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n.ServeUDP(ctx, pc) }()

	client, err := Dial(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 5; i++ {
		resp, rtt, err := client.Infer(1, test.Examples[i].X)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err {
			t.Fatal("error response")
		}
		if rtt <= 0 || rtt > time.Second {
			t.Errorf("rtt = %v", rtt)
		}
		if len(resp.Probs) != 2 {
			t.Errorf("probs = %v", resp.Probs)
		}
	}
	// Unknown model returns an Err-flagged response surfaced as a typed
	// *ServerError, not silence.
	resp, _, err := client.Infer(42, test.Examples[0].X)
	var se *ServerError
	if !errors.As(err, &se) {
		t.Errorf("unknown model returned %v, want *ServerError", err)
	} else if se.ModelID != 42 {
		t.Errorf("ServerError.ModelID = %d, want 42", se.ModelID)
	}
	if resp == nil || !resp.Err {
		t.Error("unknown model did not return the flagged response")
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("ServeUDP returned %v", err)
	}
}

// TestHandleMessageFaultedBiasReadIsErrFlagged is the serve-path half of the
// bias-fault regression (loader half: dagloader.TestServeFaultedBiasReadFails):
// a faulted bias read used to be served as a zero bias — here flipping the
// answer from class 1 to class 0 — with a well-formed response. It must come
// back Err-flagged and count against the shard, exactly as a faulted weights
// read does.
func TestHandleMessageFaultedBiasReadIsErrFlagged(t *testing.T) {
	n, err := New(Config{Lanes: 2, Noiseless: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ones := []fixed.Signed{{Mag: 1}, {Mag: 1}, {Mag: 1}, {Mag: 1}}
	q := &nn.QuantizedNetwork{Layers: []nn.QuantizedLayer{{
		Weights: [][]fixed.Signed{ones, ones},
		Bias:    []fixed.Acc{0, 3000},
		Final:   true,
	}}}
	if err := n.RegisterModel(4, "bias-decides", q); err != nil {
		t.Fatal(err)
	}
	query := &Message{RequestID: 1, ModelID: 4, Payload: []byte{10, 10, 10, 10}}
	resp, err := n.HandleMessage(query)
	if err != nil || resp.Err || resp.Class != 1 {
		t.Fatalf("healthy query: resp=%+v err=%v, want class 1", resp, err)
	}

	n.store.DRAM.SetReadFault(func(key string, blob []byte) ([]byte, bool) {
		return blob, !strings.HasSuffix(key, "/bias")
	})
	resp, err = n.HandleMessage(query)
	if err == nil || resp == nil || !resp.Err {
		t.Fatalf("faulted bias read: resp=%+v err=%v, want an Err-flagged response", resp, err)
	}
	m := n.Metrics()
	if m.DRAMFaultedReads != 1 || m.Shards[0].Errors != 1 || m.Served != 1 {
		t.Fatalf("faulted=%d shard errors=%d served=%d, want 1/1/1",
			m.DRAMFaultedReads, m.Shards[0].Errors, m.Served)
	}

	// A bias read that comes back short must not be served with the missing
	// biases dropped.
	n.store.DRAM.SetReadFault(func(key string, blob []byte) ([]byte, bool) {
		if strings.HasSuffix(key, "/bias") {
			return blob[:2], true
		}
		return blob, true
	})
	resp, err = n.HandleMessage(query)
	if err == nil || resp == nil || !resp.Err {
		t.Fatalf("short bias read: resp=%+v err=%v, want an Err-flagged response", resp, err)
	}
	if m := n.Metrics(); m.Shards[0].Errors != 2 || m.Served != 1 {
		t.Fatalf("shard errors=%d served=%d, want 2/1", m.Shards[0].Errors, m.Served)
	}
}
