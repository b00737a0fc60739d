package lightning

import (
	"sync"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/nic"
)

// TestNICConcurrentHandleMessage hammers every public NIC entry point —
// HandleMessage, Metrics, Served — from many goroutines at once. Run under
// -race (CI does) it proves the sharded NIC has no data races; the final
// counter checks prove no update was lost.
func TestNICConcurrentHandleMessage(t *testing.T) {
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

	const (
		messageSenders = 6
		scrapers       = 2
		iters          = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, messageSenders)

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
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = n.Metrics()
				_ = n.Served()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent serve failed: %v", err)
	}

	const served = messageSenders * iters
	if n.Served() != served {
		t.Errorf("Served = %d, want %d", n.Served(), served)
	}
	if m := n.Metrics(); m.Served != served {
		t.Errorf("Metrics.Served = %d, want %d", m.Served, served)
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
