package nic

import (
	"sync"
	"testing"
	"time"

	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// fakeTimer is the injected flush timer: it never consults a clock — tests
// fire it by hand — which keeps the flush-correctness suite deterministic
// and the clockinject analyzer clean.
type fakeTimer struct {
	mu     sync.Mutex
	fire   func()
	resets int
	stops  int
}

func (f *fakeTimer) Reset(time.Duration) {
	f.mu.Lock()
	f.resets++
	f.mu.Unlock()
}

func (f *fakeTimer) Stop() {
	f.mu.Lock()
	f.stops++
	f.mu.Unlock()
}

func (f *fakeTimer) Fire() { f.fire() }

func (f *fakeTimer) Resets() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.resets
}

// batchRecorder is a test exec sink: it answers every item with its own
// RequestID echoed in Class (so fan-out mix-ups are visible) and records
// batch shapes.
type batchRecorder struct {
	mu      sync.Mutex
	batches [][]uint32 // request IDs per executed batch
	models  []uint16
}

func (r *batchRecorder) exec(modelID uint16, items []*BatchItem) {
	ids := make([]uint32, len(items))
	for i, it := range items {
		ids[i] = it.RequestID
		*it.Resp = Response{RequestID: it.RequestID, ModelID: modelID, Class: uint16(it.RequestID)}
	}
	r.mu.Lock()
	r.batches = append(r.batches, ids)
	r.models = append(r.models, modelID)
	r.mu.Unlock()
}

func (r *batchRecorder) snapshot() ([][]uint32, []uint16) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]uint32(nil), r.batches...), append([]uint16(nil), r.models...)
}

// newTestBatcher wires a Batcher to a recorder and per-model fake timers.
func newTestBatcher(cfg BatchConfig) (*Batcher, *batchRecorder, *sync.Map) {
	rec := &batchRecorder{}
	timers := &sync.Map{} // one fakeTimer per model queue, keyed by creation order
	var n int
	var mu sync.Mutex
	b := NewBatcherWithTimer(cfg, rec.exec, func(fire func()) BatchTimer {
		ft := &fakeTimer{fire: fire}
		mu.Lock()
		timers.Store(n, ft)
		n++
		mu.Unlock()
		return ft
	})
	return b, rec, timers
}

// do launches one Do call in the background and returns a channel carrying
// its result.
func do(b *Batcher, modelID uint16, requestID uint32) <-chan Response {
	ch := make(chan Response, 1)
	go func() {
		var resp Response
		_, _ = b.Do(modelID, requestID, []fixed.Code{fixed.Code(requestID)}, &resp)
		ch <- resp
	}()
	return ch
}

func waitPending(t *testing.T, b *Batcher, want int) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if b.Pending() == want {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
	t.Fatalf("pending never reached %d (at %d)", want, b.Pending())
}

func timerFor(t *testing.T, timers *sync.Map, i int) *fakeTimer {
	t.Helper()
	v, ok := timers.Load(i)
	if !ok {
		t.Fatalf("no timer %d created", i)
	}
	return v.(*fakeTimer)
}

// TestBatcherFullFlush: MaxBatch concurrent queries coalesce into exactly
// one full-flush batch, and every caller gets its own verdict back.
func TestBatcherFullFlush(t *testing.T) {
	b, rec, _ := newTestBatcher(BatchConfig{MaxBatch: 4, MaxDelay: time.Hour})
	chans := make([]<-chan Response, 4)
	for i := range chans {
		chans[i] = do(b, 7, uint32(i+1))
	}
	for i, ch := range chans {
		resp := <-ch
		if resp.RequestID != uint32(i+1) || resp.Class != uint16(i+1) {
			t.Fatalf("caller %d got response %+v — fan-out misrouted", i, resp)
		}
	}
	batches, models := rec.snapshot()
	if len(batches) != 1 || len(batches[0]) != 4 {
		t.Fatalf("batches = %v, want one batch of 4", batches)
	}
	if models[0] != 7 {
		t.Fatalf("batch model = %d", models[0])
	}
	s := b.Stats()
	if s.Flushes != 1 || s.FullFlushes != 1 || s.TimerFlushes != 0 || s.Queries != 4 || s.MaxBatch != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestBatcherTimerFiresExactlyOncePerPartialBatch is the flush-timer
// correctness pin: a partial batch flushes on the injected timer exactly
// once — re-firing the same armed generation is a no-op, and a fire racing
// a completed full flush is a no-op too.
func TestBatcherTimerFiresExactlyOnce(t *testing.T) {
	b, rec, timers := newTestBatcher(BatchConfig{MaxBatch: 8, MaxDelay: time.Hour})
	chans := []<-chan Response{do(b, 7, 1), do(b, 7, 2), do(b, 7, 3)}
	waitPending(t, b, 3)
	ft := timerFor(t, timers, 0)
	if ft.Resets() != 1 {
		t.Fatalf("timer armed %d times for one batch head, want 1", ft.Resets())
	}

	ft.Fire()
	for _, ch := range chans {
		<-ch
	}
	if s := b.Stats(); s.Flushes != 1 || s.TimerFlushes != 1 {
		t.Fatalf("after fire: stats = %+v, want exactly one timer flush", s)
	}

	// A duplicate fire of the same generation must not flush anything.
	ft.Fire()
	if s := b.Stats(); s.Flushes != 1 {
		t.Fatalf("duplicate fire flushed: stats = %+v", s)
	}

	// Fill a full batch, then deliver the (stale) timer fire that a racing
	// time.AfterFunc could produce: the generation check makes it a no-op.
	chans = nil
	for i := 0; i < 8; i++ {
		chans = append(chans, do(b, 7, uint32(10+i)))
	}
	for _, ch := range chans {
		<-ch
	}
	before := b.Stats()
	ft.Fire()
	if s := b.Stats(); s.Flushes != before.Flushes {
		t.Fatalf("stale fire after full flush flushed again: %+v -> %+v", before, s)
	}
	batches, _ := rec.snapshot()
	if len(batches) != 2 {
		t.Fatalf("batches = %v, want partial(3) + full(8)", batches)
	}
}

// TestBatcherRearmsPerBatchHead: each new partial batch re-arms the delay
// timer exactly once (at its first query), not per query.
func TestBatcherRearmsPerBatchHead(t *testing.T) {
	b, _, timers := newTestBatcher(BatchConfig{MaxBatch: 8, MaxDelay: time.Hour})
	c1, c2 := do(b, 7, 1), do(b, 7, 2)
	waitPending(t, b, 2)
	ft := timerFor(t, timers, 0)
	if ft.Resets() != 1 {
		t.Fatalf("resets = %d after two queries of one batch, want 1", ft.Resets())
	}
	ft.Fire()
	<-c1
	<-c2
	c3 := do(b, 7, 3)
	waitPending(t, b, 1)
	if ft.Resets() != 2 {
		t.Fatalf("resets = %d after a second batch head, want 2", ft.Resets())
	}
	ft.Fire()
	<-c3
}

// TestBatcherFlushAll: FlushAll drains every model's partial batch (the
// NIC.Drain contract) and is a no-op when nothing is pending.
func TestBatcherFlushAll(t *testing.T) {
	b, rec, _ := newTestBatcher(BatchConfig{MaxBatch: 8, MaxDelay: time.Hour})
	chans := []<-chan Response{do(b, 1, 10), do(b, 2, 20), do(b, 2, 21)}
	waitPending(t, b, 3)
	b.FlushAll()
	for _, ch := range chans {
		<-ch
	}
	if b.Pending() != 0 {
		t.Fatalf("pending = %d after FlushAll", b.Pending())
	}
	s := b.Stats()
	if s.DrainFlushes != 2 || s.Flushes != 2 {
		t.Fatalf("stats = %+v, want 2 drain flushes (one per model)", s)
	}
	_, models := rec.snapshot()
	if len(models) != 2 || models[0] == models[1] {
		t.Fatalf("drained models = %v, want the two distinct queues", models)
	}
	b.FlushAll() // empty: must not count a flush
	if s := b.Stats(); s.Flushes != 2 {
		t.Fatalf("empty FlushAll flushed: %+v", s)
	}
}

// TestBatcherPerModelIsolation: queries for different models never share a
// batch, whatever the arrival interleaving.
func TestBatcherPerModelIsolation(t *testing.T) {
	b, rec, _ := newTestBatcher(BatchConfig{MaxBatch: 2, MaxDelay: time.Hour})
	chans := []<-chan Response{do(b, 1, 1), do(b, 2, 2), do(b, 1, 3), do(b, 2, 4)}
	for _, ch := range chans {
		resp := <-ch
		if uint16(resp.RequestID) != resp.Class {
			t.Fatalf("misrouted response %+v", resp)
		}
	}
	batches, models := rec.snapshot()
	if len(batches) != 2 {
		t.Fatalf("batches = %v, want 2 full per-model batches", batches)
	}
	for i, ids := range batches {
		for _, id := range ids {
			wantModel := uint16(1)
			if id%2 == 0 {
				wantModel = 2
			}
			if models[i] != wantModel {
				t.Fatalf("request %d flushed under model %d", id, models[i])
			}
		}
	}
}

// TestBatcherDoSteadyStateZeroAllocs guards the queue hot path: with the
// item pool and batch arrays warm, a queue→flush→respond round trip must
// not allocate (exec itself is a no-op here — the datapath has its own
// guard).
func TestBatcherDoSteadyStateZeroAllocs(t *testing.T) {
	b := NewBatcherWithTimer(
		BatchConfig{MaxBatch: 1, MaxDelay: time.Hour},
		func(modelID uint16, items []*BatchItem) {
			for _, it := range items {
				*it.Resp = Response{RequestID: it.RequestID, ModelID: modelID}
			}
		},
		func(fire func()) BatchTimer { return &fakeTimer{fire: fire} },
	)
	input := []fixed.Code{1, 2, 3}
	var resp Response
	if _, err := b.Do(9, 1, input, &resp); err != nil { // warm-up: pools fill
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := b.Do(9, 2, input, &resp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("batch queue round trip allocates %v times per query, want 0", n)
	}
}

// TestBatchShareCountsDown: of one executed batch's k shares exactly one
// release reports the batch complete, and a share whose buffer has since
// carried another batch reports it too, without touching that batch's
// count. The zero share, a query that ran alone, never does.
func TestBatchShareCountsDown(t *testing.T) {
	b, _, _ := newTestBatcher(BatchConfig{MaxBatch: 4, MaxDelay: time.Hour})
	shares := make(chan BatchShare, 4)
	for id := uint32(1); id <= 4; id++ {
		go func() {
			var resp Response
			share, _ := b.Do(7, id, []fixed.Code{1}, &resp)
			shares <- share
		}()
	}
	lasts := 0
	for i := 0; i < 4; i++ {
		s := <-shares
		if !s.Batched() {
			t.Fatal("a batched query's share is the zero share")
		}
		if s.Release() {
			lasts++
		}
	}
	if lasts != 1 {
		t.Errorf("%d of 4 releases completed the batch, want 1", lasts)
	}

	var bb batchBuf
	stale := bb.arm(2)
	live := bb.arm(2)
	if !stale.Release() {
		t.Error("a share of a recounted buffer did not report its batch complete")
	}
	if live.Release() || !live.Release() {
		t.Error("the stale release moved the live batch's count")
	}
	if (BatchShare{}).Release() || (BatchShare{}).Batched() {
		t.Error("the zero share claims a batch")
	}
}

// TestBatchConfigEnabled pins the enablement rule the NIC keys off.
func TestBatchConfigEnabled(t *testing.T) {
	for _, tc := range []struct {
		max  int
		want bool
	}{{0, false}, {1, false}, {2, true}, {16, true}} {
		if got := (BatchConfig{MaxBatch: tc.max}).Enabled(); got != tc.want {
			t.Errorf("Enabled(MaxBatch=%d) = %v, want %v", tc.max, got, tc.want)
		}
	}
}
