package nic

import (
	"maps"
	"strings"
	"sync"
	"testing"
	"time"
)

// logicalClock is a mutex-guarded fake time source for admission tests.
type logicalClock struct {
	mu  sync.Mutex
	now time.Time
}

func newLogicalClock() *logicalClock { return &logicalClock{now: time.Unix(5000, 0)} }

func (c *logicalClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *logicalClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// pop is PopBatch for one job.
func pop(a *Admitter) (AdmitJob, bool) {
	var one [1]AdmitJob
	_, ok := a.PopBatch(one[:])
	return one[0], ok
}

// TestAdmitterBound: a model's queue rejects at its bound without touching
// other models' admission.
func TestAdmitterBound(t *testing.T) {
	a := NewAdmitter(AdmissionConfig{
		MaxQueue: 2,
		Models:   map[uint16]AdmitPolicy{7: {MaxQueue: 4}},
	}, 16)
	for i := 0; i < 2; i++ {
		if !a.Offer(1, i) {
			t.Fatalf("offer %d for model 1 rejected below bound", i)
		}
	}
	if a.Offer(1, 99) {
		t.Error("offer beyond model 1's bound admitted")
	}
	// Model 7's larger per-model bound is independent of model 1's fullness.
	for i := 0; i < 4; i++ {
		if !a.Offer(7, i) {
			t.Fatalf("offer %d for model 7 rejected below its override bound", i)
		}
	}
	if a.Offer(7, 99) {
		t.Error("offer beyond model 7's bound admitted")
	}
	d := a.Depths()
	if d[1] != 2 || d[7] != 4 {
		t.Errorf("Depths = %v, want model1=2 model7=4", d)
	}
}

// TestAdmitterWeightedRoundRobin: with both queues backlogged, dequeues
// follow the smooth-WRR proportion — weight 3 : weight 1 interleaved, not
// bursty.
func TestAdmitterWeightedRoundRobin(t *testing.T) {
	a := NewAdmitter(AdmissionConfig{
		MaxQueue: 16,
		Models: map[uint16]AdmitPolicy{
			1: {Weight: 3},
			2: {Weight: 1},
		},
	}, 16)
	for i := 0; i < 8; i++ {
		if !a.Offer(1, i) || !a.Offer(2, i) {
			t.Fatal("offer rejected below bound")
		}
	}
	var got []uint16
	for i := 0; i < 8; i++ {
		job, ok := pop(a)
		if !ok {
			t.Fatal("Pop reported closed")
		}
		got = append(got, job.Model)
	}
	// Smooth WRR with weights 3:1 serves A A B A per round (ties to the
	// earliest-created queue).
	want := []uint16{1, 1, 2, 1, 1, 1, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order = %v, want %v", got, want)
		}
	}
}

// TestAdmitterWorkConserving: weights only matter under contention — a lone
// busy model takes every dequeue slot regardless of its weight.
func TestAdmitterWorkConserving(t *testing.T) {
	a := NewAdmitter(AdmissionConfig{
		MaxQueue: 8,
		Models:   map[uint16]AdmitPolicy{2: {Weight: 1}, 1: {Weight: 100}},
	}, 8)
	for i := 0; i < 4; i++ {
		a.Offer(2, i)
	}
	for i := 0; i < 4; i++ {
		job, ok := pop(a)
		if !ok || job.Model != 2 {
			t.Fatalf("pop %d = model %d ok=%v, want model 2", i, job.Model, ok)
		}
		if job.Payload.(int) != i {
			t.Errorf("pop %d payload = %v, want FIFO order %d", i, job.Payload, i)
		}
	}
}

// TestAdmitterBudgetStamping: jobs carry their model's resolved budget and
// the injected clock's arrival stamp; Expired flips once the budget elapses.
func TestAdmitterBudgetStamping(t *testing.T) {
	clk := newLogicalClock()
	a := NewAdmitter(AdmissionConfig{
		MaxQueue: 8,
		Budget:   10 * time.Millisecond,
		Models: map[uint16]AdmitPolicy{
			2: {Budget: 50 * time.Millisecond},
			3: {Budget: -1}, // opt out of the default budget
		},
	}, 8)
	a.SetClock(clk.Now)
	a.Offer(1, "default")
	a.Offer(2, "override")
	a.Offer(3, "exempt")
	clk.Advance(20 * time.Millisecond)
	now := clk.Now()
	for i := 0; i < 3; i++ {
		job, ok := pop(a)
		if !ok {
			t.Fatal("Pop reported closed")
		}
		switch job.Model {
		case 1:
			if job.Budget != 10*time.Millisecond || !job.Expired(now) {
				t.Errorf("model 1 budget=%v expired=%v, want default budget blown", job.Budget, job.Expired(now))
			}
		case 2:
			if job.Budget != 50*time.Millisecond || job.Expired(now) {
				t.Errorf("model 2 budget=%v expired=%v, want override budget intact", job.Budget, job.Expired(now))
			}
		case 3:
			if job.Budget != 0 || job.Expired(now) {
				t.Errorf("model 3 budget=%v, want shedding disabled", job.Budget)
			}
		}
	}
}

// TestAdmitterCloseDrains: Close rejects new offers but keeps already
// admitted jobs poppable until the queues are empty, then Pop reports done.
func TestAdmitterCloseDrains(t *testing.T) {
	a := NewAdmitter(AdmissionConfig{MaxQueue: 8}, 8)
	for i := 0; i < 3; i++ {
		a.Offer(1, i)
	}
	a.Close()
	if a.Offer(1, 99) {
		t.Error("offer after Close admitted")
	}
	for i := 0; i < 3; i++ {
		job, ok := pop(a)
		if !ok || job.Payload.(int) != i {
			t.Fatalf("drain pop %d = %v ok=%v", i, job.Payload, ok)
		}
	}
	if _, ok := pop(a); ok {
		t.Error("Pop after drain still returned a job")
	}
}

// TestAdmitterCloseWakesBlockedPop: a worker parked in Pop on an empty
// admitter must return promptly when the admitter closes.
func TestAdmitterCloseWakesBlockedPop(t *testing.T) {
	a := NewAdmitter(AdmissionConfig{MaxQueue: 8}, 8)
	done := make(chan bool, 1)
	go func() {
		_, ok := pop(a)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("blocked Pop returned a job from an empty closed admitter")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop still blocked after Close")
	}
}

// TestAdmitterConcurrent exercises racing producers and consumers under the
// race detector: every admitted job is popped exactly once and the books
// balance.
func TestAdmitterConcurrent(t *testing.T) {
	a := NewAdmitter(AdmissionConfig{MaxQueue: 64}, 64)
	const producers, perProducer = 4, 200
	var admitted, rejected, popped int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if a.Offer(uint16(p%2+1), i) {
					mu.Lock()
					admitted++
					mu.Unlock()
				} else {
					mu.Lock()
					rejected++
					mu.Unlock()
				}
			}
		}(p)
	}
	var cg sync.WaitGroup
	for c := 0; c < 3; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				if _, ok := pop(a); !ok {
					return
				}
				mu.Lock()
				popped++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	a.Close()
	cg.Wait()
	if admitted+rejected != producers*perProducer {
		t.Errorf("admitted %d + rejected %d != offered %d", admitted, rejected, producers*perProducer)
	}
	if popped != admitted {
		t.Errorf("popped %d != admitted %d", popped, admitted)
	}
}

// TestParseAdmitWeights covers the -admit-weights syntax both commands
// share: good entries (blanks and spaces tolerated), then each way an entry
// or the whole list is refused.
func TestParseAdmitWeights(t *testing.T) {
	for _, c := range []struct {
		in   string
		want map[uint16]AdmitPolicy
		err  string // substring of the error; "" means success
	}{
		{in: "4:3,5:1", want: map[uint16]AdmitPolicy{4: {Weight: 3}, 5: {Weight: 1}}},
		{in: " 7:2 ,, ", want: map[uint16]AdmitPolicy{7: {Weight: 2}}},
		{in: "", err: "no entries"},
		{in: " , ", err: "no entries"},
		{in: "4", err: "want id:weight"},
		{in: "4:1:2", err: "weight"},
		{in: "x:1", err: "model id"},
		{in: "70000:1", err: "model id"},
		{in: "4:heavy", err: "weight"},
	} {
		got, err := ParseAdmitWeights(c.in)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("ParseAdmitWeights(%q) error = %v, want one naming %q", c.in, err, c.err)
			}
			continue
		}
		if err != nil || !maps.Equal(got, c.want) {
			t.Errorf("ParseAdmitWeights(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}
