package lightning

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// TestClientInferConcurrent is the regression test for the Client race:
// parallel Infer calls on ONE client share the socket and the request-ID
// counter. Pre-fix, goroutines interleaved Reads and stole each other's
// replies (and raced on nextID, which the race detector flags); post-fix
// Infer serializes, so every caller gets its own answer.
func TestClientInferConcurrent(t *testing.T) {
	const width = 64
	n, _ := New(Config{Lanes: 2, Noiseless: true, Seed: 41, Cores: 2})
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
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

	client, err := Dial(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 2 * time.Second
	client.Retries = 2

	// Each goroutine alternates bright halves; the answer proves it got its
	// own response, not a stolen one.
	const goroutines, perG = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := uint16(g % 2)
			query := make([]Code, width)
			lo, hi := 0, width/2
			if want == 1 {
				lo, hi = width/2, width
			}
			for i := lo; i < hi; i++ {
				query[i] = 200
			}
			for i := 0; i < perG; i++ {
				resp, _, err := client.Infer(4, query)
				if err != nil {
					errs <- err
					return
				}
				if resp.Class != want {
					errs <- errors.New("got another caller's answer")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("ServeUDPWorkers returned %v", err)
	}
}

// neverTimer is a batch flush timer that never fires — it models a parked
// partial batch whose MaxDelay has not elapsed when the serve loop dies.
type neverTimer struct{}

func (neverTimer) Reset(time.Duration) {}
func (neverTimer) Stop()               {}

// TestServeUDPFatalReadErrorDrainsParkedBatch is the regression test for
// the fatal-exit drain bug: when ServeUDP's read fails with a non-timeout
// error, queries parked in a per-model batch queue behind a MaxDelay timer
// (a concurrent HandleMessage caller's) must flush through Drain the way
// the worker path's defer and the cancellation path already do — not be
// abandoned mid-flight. The injected timer never fires, so pre-fix the
// parked caller hangs forever.
func TestServeUDPFatalReadErrorDrainsParkedBatch(t *testing.T) {
	const width = 64
	n, _ := New(Config{
		Lanes: 2, Noiseless: true, Seed: 42,
		Batch: BatchConfig{MaxBatch: 4, MaxDelay: time.Hour},
	})
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	// Swap in a batcher whose delay timer never fires: only a full batch or
	// a drain can flush it.
	n.batcher = nic.NewBatcherWithTimer(
		nic.BatchConfig{MaxBatch: 4, MaxDelay: time.Hour},
		n.execBatch,
		func(func()) nic.BatchTimer { return neverTimer{} },
	)

	// A concurrent caller parks one query in the batch queue.
	parked := make(chan error, 1)
	go func() {
		payload := make([]byte, width)
		_, err := n.HandleMessage(&Message{RequestID: 9, ModelID: 4, Payload: payload})
		parked <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for n.batcher.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never parked in the batch queue")
		}
		time.Sleep(time.Millisecond)
	}

	// The serve socket fails fatally with the batch still parked.
	fatal := errors.New("socket torn down")
	pc := fault.NewStubConn()
	pc.ReadErr = fatal
	if err := n.ServeUDP(context.Background(), pc); !errors.Is(err, fatal) {
		t.Fatalf("ServeUDP = %v, want the fatal read error", err)
	}
	select {
	case err := <-parked:
		if err != nil {
			t.Fatalf("flushed parked query failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked query abandoned: fatal-error exit did not drain the batch queue")
	}
	if p := n.batcher.Pending(); p != 0 {
		t.Errorf("batch queue still holds %d queries after fatal-exit drain", p)
	}
}
