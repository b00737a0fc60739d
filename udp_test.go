package lightning

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fault"
	"github.com/lightning-smartnic/lightning/internal/frontdoor"
	"github.com/lightning-smartnic/lightning/internal/netbatch"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// TestClientInferConcurrent is the regression test for the Client race:
// parallel Infer calls on ONE client share the socket and the request-ID
// counter. Pre-fix, goroutines interleaved Reads and stole each other's
// replies (and raced on nextID, which the race detector flags); now one
// reader hands each response to the call waiting on its request ID, so
// every caller gets its own answer.
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

// TestClientInferOverlapsCallers: two goroutines call Infer on one Client
// against a server that holds its first answer until the second query has
// arrived. A Client that kept one round trip on the socket at a time would
// never send the second query, and its first call would time out; the
// shared channel sends both, and each caller gets its own answer (the
// server answers with the query's first byte as the class, second query
// first).
func TestClientInferOverlapsCallers(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	served := make(chan error, 1)
	go func() {
		type query struct {
			id    uint32
			class uint16
			from  net.Addr
		}
		var held []query
		buf := make([]byte, 2048)
		for len(held) < 2 {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				served <- err
				return
			}
			var m Message
			if err := m.Decode(buf[:n]); err != nil {
				served <- err
				return
			}
			held = append(held, query{m.RequestID, uint16(m.Payload[0]), from})
		}
		for i := len(held) - 1; i >= 0; i-- {
			q := held[i]
			frame, err := (&Response{RequestID: q.id, ModelID: 1, Class: q.class}).ToMessage().Encode()
			if err == nil {
				_, err = pc.WriteTo(frame, q.from)
			}
			if err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()

	client, err := Dial(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 2 * time.Second
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, _, err := client.Infer(1, []Code{Code(g)})
			if err != nil {
				t.Errorf("caller %d: %v", g, err)
				return
			}
			if int(resp.Class) != g {
				t.Errorf("caller %d got class %d: another caller's answer", g, resp.Class)
			}
		}(g)
	}
	wg.Wait()
	if err := <-served; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// neverTimer is a batch flush timer that never fires on its own — it models
// a parked partial batch whose MaxDelay has not elapsed.
type neverTimer struct{}

func (neverTimer) Reset(time.Duration) bool { return false }
func (neverTimer) Stop() bool               { return false }

// TestServeUDPFatalReadErrorDrainsParkedBatch is the regression test for
// the fatal-exit drain bug: when the serve socket's read fails with a
// non-timeout error, a query parked in admission behind a MaxDelay timer
// must be answered on the way out, the way the cancellation path already
// does — not abandoned mid-flight. The injected timer never fires, so only
// the exit's drain can release the parked query.
func TestServeUDPFatalReadErrorDrainsParkedBatch(t *testing.T) {
	const width = 64
	batch := BatchConfig{MaxBatch: 4, MaxDelay: time.Hour}
	n, _ := New(Config{Lanes: 2, Noiseless: true, Seed: 42, Batch: batch})
	if err := n.RegisterModel(4, "halves", halvesModel(width)); err != nil {
		t.Fatal(err)
	}
	n.door.SetBatch(batch, func(func()) nic.BatchTimer { return neverTimer{} })

	// The serve socket delivers one query, which parks in admission, then
	// fails fatally with the batch still partial.
	fatal := errors.New("socket torn down")
	pc := fault.NewStubConn()
	pc.Enqueue(encodeQuery(t, 9, 4, make([]byte, width)))
	pc.ReadErr = fatal
	served := make(chan error, 1)
	go func() { served <- n.ServeUDPWorkers(context.Background(), pc, 2) }()
	select {
	case err := <-served:
		if !errors.Is(err, fatal) {
			t.Fatalf("ServeUDPWorkers = %v, want the fatal read error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked query abandoned: fatal-error exit did not drain admission")
	}
	if m := n.Metrics(); pc.Writes() != 1 || m.Served != 1 {
		t.Fatalf("flushed parked query: %d responses written, %d served, want 1 and 1", pc.Writes(), m.Served)
	}
	if p := queued(n); p != 0 {
		t.Errorf("admission still holds %d queries after fatal-exit drain", p)
	}
}

// TestServeUDPWorkersBudgetCoversBatchWait: under batching a query's latency
// budget runs from admission to the pop of its batch, so a partial batch
// that waited out its budget for companions is shed — counted in
// Serve.Shed, never answered — not served late. Time is the admitter's
// logical clock and MaxDelay a hand-fired timer; a full batch inside its
// budget is still served.
func TestServeUDPWorkersBudgetCoversBatchWait(t *testing.T) {
	cfg := Config{
		Lanes: 2, Noiseless: true, Seed: 18,
		Batch:     BatchConfig{MaxBatch: 8, MaxDelay: time.Hour},
		Admission: AdmissionConfig{Budget: 10 * time.Millisecond},
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterModel(flushModel, "halves", halvesModel(flushWidth)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	now := time.Unix(5000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	fires := make(chan func(), 1)
	n.door = frontdoor.New(n.reassembly, cfg.Admission, clock)
	n.door.SetBatch(cfg.Batch, func(fire func()) nic.BatchTimer {
		fires <- fire
		return neverTimer{}
	})
	conn := newFlushConn()
	n.rail = func(net.PacketConn, *netbatch.Counters) netbatch.BatchConn { return conn }
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n.ServeUDPWorkers(ctx, nil, 8) }()
	defer func() {
		cancel()
		close(conn.closed)
		if err := <-done; err != nil {
			t.Errorf("serve returned %v", err)
		}
	}()

	// Three queries wait for companions past their budget, then MaxDelay
	// lets their batch go.
	conn.in <- queries(t, 1, 3)
	waitQueued(t, n, 3)
	mu.Lock()
	now = now.Add(20 * time.Millisecond)
	mu.Unlock()
	(<-fires)()
	for i := 0; i < 20000 && n.Metrics().Serve.Shed != 3; i++ {
		time.Sleep(50 * time.Microsecond)
	}
	if m := n.Metrics(); m.Serve.Shed != 3 || m.Served != 0 {
		t.Fatalf("after the batch outwaited its budget: shed %d, served %d, want 3 and 0", m.Serve.Shed, m.Served)
	}

	// A full batch inside its budget leaves at once, every answer its
	// oracle's, and the shed batch wrote nothing.
	conn.in <- queries(t, 11, 8)
	for _, s := range conn.await(t, 8) {
		if s.err || s.class != int(s.id%2) || s.id < 11 {
			t.Errorf("request %d answered class %d (error %v)", s.id, s.class, s.err)
		}
	}
	if sizes := flushSizes(conn.recorded()); !slices.Equal(sizes, []int{8}) {
		t.Errorf("flush sizes %v, want the full batch's one flush of 8", sizes)
	}
}

// TestServeUDPBatchConfigAnswersEachReadAtOnce: Config.Batch governs the
// worker pool's admission pop only, so ServeUDP's inline reader on a NIC
// with Batch{8, time.Hour} answers a read of three queries at once, in the
// read's one flush, with no drain and no batch counted.
func TestServeUDPBatchConfigAnswersEachReadAtOnce(t *testing.T) {
	n, conn := serveFlush(t, Config{
		Lanes: 2, Noiseless: true, Seed: 3,
		Batch: BatchConfig{MaxBatch: 8, MaxDelay: time.Hour},
	}, 0)
	conn.in <- queries(t, 1, 3)
	for _, s := range conn.await(t, 3) {
		if s.err || s.class != int(s.id%2) {
			t.Errorf("request %d answered class %d (error %v), want its oracle %d", s.id, s.class, s.err, s.id%2)
		}
	}
	if sizes := flushSizes(conn.recorded()); !slices.Equal(sizes, []int{3}) {
		t.Errorf("flush sizes %v, want the read's one flush of 3", sizes)
	}
	if m := n.Metrics(); m.Batch.Flushes != 0 || m.Serve.InlineBatchSize.Sum != 3 {
		t.Errorf("batch flushes %d, inline group queries %d: want 0 and 3", m.Batch.Flushes, m.Serve.InlineBatchSize.Sum)
	}
}
