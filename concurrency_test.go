package lightning

import (
	"net/netip"
	"sync"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/nic"
)

// TestNICConcurrentHandleFrame hammers every public NIC entry point —
// HandleFrame, HandleMessage, Metrics, Stats, Served — from many
// goroutines at once. Run under -race (CI does) it proves the sharded NIC
// has no data races; the final counter checks prove no update was lost.
func TestNICConcurrentHandleFrame(t *testing.T) {
	q, test := trainedModel(t)
	n, err := New(Config{Lanes: 2, Seed: 11, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(1, "anomaly", q); err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, len(test.Examples[0].X))
	for j, c := range test.Examples[0].X {
		payload[j] = byte(c)
	}
	queryFrame := func(id uint32) []byte {
		frame, err := nic.BuildFrame(
			nic.Ethernet{Dst: nic.MAC{2, 0, 0, 0, 0, 2}, Src: nic.MAC{2, 0, 0, 0, 0, 1}},
			nic.IPv4{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")},
			7777,
			nic.InferencePort,
			&Message{RequestID: id, ModelID: 1, Payload: payload},
		)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	forwardFrame, err := nic.BuildFrame(
		nic.Ethernet{Dst: nic.MAC{2, 0, 0, 0, 0, 2}, Src: nic.MAC{2, 0, 0, 0, 0, 3}},
		nic.IPv4{Src: netip.MustParseAddr("10.0.0.3"), Dst: netip.MustParseAddr("10.0.0.2")},
		7777,
		nic.InferencePort,
		&Message{RequestID: 1, ModelID: 1, Payload: payload},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the UDP destination port away from the inference port so the
	// parser forwards rather than serves. Offset: 14 (Ethernet) + 20 (IPv4)
	// + 2 (UDP src).
	forwardFrame[14+20+2] = 0x12
	forwardFrame[14+20+3] = 0x34

	const (
		frameSenders   = 3
		messageSenders = 3
		forwarders     = 2
		scrapers       = 2
		iters          = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, frameSenders+messageSenders)

	for g := 0; g < frameSenders; g++ {
		frames := make([][]byte, iters)
		for i := range frames {
			frames[i] = queryFrame(uint32(g*iters + i))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, frame := range frames {
				out, verdict, err := n.HandleFrame(frame)
				if err != nil || verdict != VerdictInference || out == nil {
					errs <- err
					return
				}
			}
		}()
	}
	for g := 0; g < messageSenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := n.HandleMessage(&Message{
					RequestID: uint32(1000 + g*iters + i), ModelID: 1, Payload: payload,
				})
				if err != nil || resp == nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < forwarders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, verdict, _ := n.HandleFrame(forwardFrame); verdict != VerdictForward {
					t.Errorf("forward frame verdict = %v", verdict)
					return
				}
			}
		}()
	}
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = n.Metrics()
				_ = n.Stats()
				_ = n.Served()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent serve failed: %v", err)
	}

	const served = (frameSenders + messageSenders) * iters
	if n.Served() != served {
		t.Errorf("Served = %d, want %d", n.Served(), served)
	}
	m := n.Metrics()
	if m.Served != served {
		t.Errorf("Metrics.Served = %d, want %d", m.Served, served)
	}
	wantFrames := uint64((frameSenders + forwarders) * iters)
	if m.Parser.Frames != wantFrames {
		t.Errorf("Parser.Frames = %d, want %d", m.Parser.Frames, wantFrames)
	}
	if m.Parser.Inference != uint64(frameSenders*iters) {
		t.Errorf("Parser.Inference = %d, want %d", m.Parser.Inference, frameSenders*iters)
	}
	if m.Parser.Forwarded != uint64(forwarders*iters) {
		t.Errorf("Parser.Forwarded = %d, want %d", m.Parser.Forwarded, forwarders*iters)
	}
	if m.TxFrames != uint64(frameSenders*iters) {
		t.Errorf("TxFrames = %d, want %d", m.TxFrames, frameSenders*iters)
	}
}

// TestNICConcurrentFragmentedQueries interleaves fragments of many large
// queries across goroutines: every reassembly must complete and serve.
func TestNICConcurrentFragmentedQueries(t *testing.T) {
	q, test := trainedModel(t)
	n, err := New(Config{Lanes: 2, Seed: 13, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(1, "anomaly", q); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, len(test.Examples[0].X))
	for j, c := range test.Examples[0].X {
		payload[j] = byte(c)
	}

	const senders = 4
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Tiny max payload forces multi-fragment queries.
			msgs, err := nic.Fragment(uint32(g+1), 1, payload, nic.FragHeaderLen+8)
			if err != nil {
				t.Error(err)
				return
			}
			var got *Response
			for _, m := range msgs {
				resp, err := n.HandleMessage(m)
				if err != nil {
					t.Error(err)
					return
				}
				if resp != nil {
					got = resp
				}
			}
			if got == nil {
				t.Errorf("sender %d: fragmented query never completed", g)
			}
		}(g)
	}
	wg.Wait()
	if n.Served() != senders {
		t.Errorf("Served = %d, want %d", n.Served(), senders)
	}
	if p := n.Metrics().PendingReassembly; p != 0 {
		t.Errorf("PendingReassembly = %d after completion", p)
	}
}
