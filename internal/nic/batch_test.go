package nic

import (
	"sync"
	"testing"
	"time"
)

// fakeTimer is the injected flush timer: it never consults a clock — tests
// fire it by hand — which keeps the flush-correctness suite deterministic.
type fakeTimer struct {
	mu     sync.Mutex
	fire   func()
	resets int
	stops  int
}

func (f *fakeTimer) Reset(time.Duration) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resets++
	return false
}

func (f *fakeTimer) Stop() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stops++
	return false
}

func (f *fakeTimer) Fire() { f.fire() }

func (f *fakeTimer) Resets() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.resets
}

// newBatchAdmitter builds an Admitter that batches by cfg, with one fake
// timer per model queue, keyed by creation order.
func newBatchAdmitter(cfg BatchConfig) (*Admitter, *BatchCounters, *sync.Map) {
	timers := &sync.Map{}
	var n int
	var mu sync.Mutex
	a := NewAdmitter(AdmissionConfig{MaxQueue: 64}, 64)
	ctr := &BatchCounters{}
	a.SetBatch(cfg, func(fire func()) BatchTimer {
		ft := &fakeTimer{fire: fire}
		mu.Lock()
		timers.Store(n, ft)
		n++
		mu.Unlock()
		return ft
	}, ctr)
	return a, ctr, timers
}

// offer admits one query per id for a model, each id its own payload.
func offer(t *testing.T, a *Admitter, modelID uint16, ids ...uint32) {
	t.Helper()
	for _, id := range ids {
		if !a.Offer(modelID, id) {
			t.Fatalf("query %d refused", id)
		}
	}
}

// popBatch pops one batch and returns its model and request IDs, failing
// if the pop does not return within a second.
func popBatch(t *testing.T, a *Admitter) (uint16, []uint32) {
	t.Helper()
	type popped struct {
		model uint16
		ids   []uint32
		ok    bool
	}
	ch := make(chan popped, 1)
	go func() {
		into := make([]AdmitJob, 64)
		k, ok := a.PopBatch(into)
		p := popped{ok: ok}
		for _, j := range into[:k] {
			p.model = j.Model
			p.ids = append(p.ids, j.Payload.(uint32))
		}
		ch <- p
	}()
	select {
	case p := <-ch:
		if !p.ok {
			t.Fatal("PopBatch reported closed")
		}
		return p.model, p.ids
	case <-time.After(time.Second):
		t.Fatal("no batch became ready")
		return 0, nil
	}
}

func timerFor(t *testing.T, timers *sync.Map, i int) *fakeTimer {
	t.Helper()
	v, ok := timers.Load(i)
	if !ok {
		t.Fatalf("no timer %d created", i)
	}
	return v.(*fakeTimer)
}

// TestBatcherFullFlush: MaxBatch queued queries leave admission as exactly
// one full batch, in arrival order, with no timer involved.
func TestBatcherFullFlush(t *testing.T) {
	a, ctr, _ := newBatchAdmitter(BatchConfig{MaxBatch: 4, MaxDelay: time.Hour})
	offer(t, a, 7, 1, 2, 3, 4)
	model, ids := popBatch(t, a)
	if model != 7 || len(ids) != 4 {
		t.Fatalf("popped model %d ids %v, want one batch of 4 for model 7", model, ids)
	}
	for i, id := range ids {
		if id != uint32(i+1) {
			t.Fatalf("popped ids %v, want arrival order", ids)
		}
	}
	s := ctr.Stats()
	if s.Flushes != 1 || s.FullFlushes != 1 || s.TimerFlushes != 0 || s.Queries != 4 || s.MaxBatch != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestBatcherTimerFiresExactlyOnce is the flush-timer correctness pin: a
// partial batch becomes ready on the injected timer, and a fire left over
// from a batch already popped readies nothing after it.
func TestBatcherTimerFiresExactlyOnce(t *testing.T) {
	a, ctr, timers := newBatchAdmitter(BatchConfig{MaxBatch: 8, MaxDelay: time.Hour})
	offer(t, a, 7, 1, 2, 3)
	ft := timerFor(t, timers, 0)
	if ft.Resets() != 1 {
		t.Fatalf("timer armed %d times for one batch head, want 1", ft.Resets())
	}
	ft.Fire()
	if _, ids := popBatch(t, a); len(ids) != 3 {
		t.Fatalf("timer flush popped %v, want the partial batch of 3", ids)
	}
	if s := ctr.Stats(); s.Flushes != 1 || s.TimerFlushes != 1 {
		t.Fatalf("after fire: stats = %+v, want exactly one timer flush", s)
	}

	// A duplicate fire of the popped generation, and a stale one after a
	// full batch, must leave the next partial batch waiting: it leaves
	// only when admission closes, as a drain flush.
	ft.Fire()
	offer(t, a, 7, 10, 11, 12, 13, 14, 15, 16, 17)
	if _, ids := popBatch(t, a); len(ids) != 8 {
		t.Fatalf("full batch popped %v", ids)
	}
	ft.Fire()
	offer(t, a, 7, 20)
	a.Close()
	if _, ids := popBatch(t, a); len(ids) != 1 {
		t.Fatalf("drain popped %v, want the lone query", ids)
	}
	if s := ctr.Stats(); s.Flushes != 3 || s.FullFlushes != 1 || s.TimerFlushes != 1 || s.DrainFlushes != 1 {
		t.Fatalf("stats = %+v, want one full, one timer and one drain flush", s)
	}
}

// TestBatcherRearmsPerBatchHead: the delay timer is armed once per batch
// head — the first query of an empty queue, and the remainder a full pop
// leaves behind — not per query.
func TestBatcherRearmsPerBatchHead(t *testing.T) {
	a, _, timers := newBatchAdmitter(BatchConfig{MaxBatch: 8, MaxDelay: time.Hour})
	offer(t, a, 7, 1, 2)
	ft := timerFor(t, timers, 0)
	if ft.Resets() != 1 {
		t.Fatalf("resets = %d after two queries of one batch, want 1", ft.Resets())
	}
	ft.Fire()
	popBatch(t, a)
	offer(t, a, 7, 3)
	if ft.Resets() != 2 {
		t.Fatalf("resets = %d after a second batch head, want 2", ft.Resets())
	}
	ft.Fire()
	popBatch(t, a)
	offer(t, a, 7, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)
	if ft.Resets() != 3 {
		t.Fatalf("resets = %d after a third batch head, want 3", ft.Resets())
	}
	popBatch(t, a) // full: two left behind
	if ft.Resets() != 4 {
		t.Fatalf("resets = %d after a full pop left a remainder, want 4", ft.Resets())
	}
	ft.Fire()
	if _, ids := popBatch(t, a); len(ids) != 2 {
		t.Fatalf("remainder popped %v, want 2", ids)
	}
}

// TestBatcherFlushAll: Flush lets every model's partial batch leave (the
// NIC.Drain contract), each as a drain flush, and readies nothing when
// nothing is queued.
func TestBatcherFlushAll(t *testing.T) {
	a, ctr, _ := newBatchAdmitter(BatchConfig{MaxBatch: 8, MaxDelay: time.Hour})
	offer(t, a, 1, 10)
	offer(t, a, 2, 20, 21)
	a.Flush()
	m1, ids1 := popBatch(t, a)
	m2, ids2 := popBatch(t, a)
	if m1 == m2 || len(ids1)+len(ids2) != 3 {
		t.Fatalf("drained %d:%v and %d:%v, want the two distinct queues", m1, ids1, m2, ids2)
	}
	if a.Pending() != 0 {
		t.Fatalf("pending = %d after Flush", a.Pending())
	}
	if s := ctr.Stats(); s.DrainFlushes != 2 || s.Flushes != 2 {
		t.Fatalf("stats = %+v, want 2 drain flushes (one per model)", s)
	}
	a.Flush() // empty: must not ready a flush
	a.Close()
	if k, ok := a.PopBatch(make([]AdmitJob, 8)); ok || k != 0 {
		t.Fatalf("empty admitter popped %d (ok %v)", k, ok)
	}
	if s := ctr.Stats(); s.Flushes != 2 {
		t.Fatalf("empty Flush flushed: %+v", s)
	}
}

// TestBatcherPerModelIsolation: queries for different models never share a
// batch, whatever the arrival interleaving.
func TestBatcherPerModelIsolation(t *testing.T) {
	a, _, _ := newBatchAdmitter(BatchConfig{MaxBatch: 2, MaxDelay: time.Hour})
	offer(t, a, 1, 1)
	offer(t, a, 2, 2)
	offer(t, a, 1, 3)
	offer(t, a, 2, 4)
	for range 2 {
		model, ids := popBatch(t, a)
		if len(ids) != 2 {
			t.Fatalf("batch %v, want 2 full per-model batches", ids)
		}
		for _, id := range ids {
			wantModel := uint16(1)
			if id%2 == 0 {
				wantModel = 2
			}
			if model != wantModel {
				t.Fatalf("request %d popped under model %d", id, model)
			}
		}
	}
}

// TestAdmitterPopBatchZeroAllocs guards the batch pop's hot path: with the
// queue's array and the caller's buffer warm, an offer→pop round trip of a
// full batch, and of a lone query with batching off, allocates nothing.
func TestAdmitterPopBatchZeroAllocs(t *testing.T) {
	payload := new(int) // a pointer payload: boxing it costs nothing
	for _, cfg := range []BatchConfig{{MaxBatch: 4, MaxDelay: time.Hour}, {}} {
		a, _, _ := newBatchAdmitter(cfg)
		k := max(cfg.MaxBatch, 1)
		into := make([]AdmitJob, k)
		round := func() {
			for range k {
				a.Offer(9, payload)
			}
			if got, ok := a.PopBatch(into); !ok || got != k {
				t.Fatalf("popped %d (ok %v), want %d", got, ok, k)
			}
		}
		round() // warm-up: the queue and its array
		if n := testing.AllocsPerRun(100, round); n != 0 {
			t.Errorf("MaxBatch %d: offer+pop allocates %v times per batch, want 0", cfg.MaxBatch, n)
		}
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
