package health

import (
	"sync"
	"testing"
)

func TestBreakerTripOnFullWindow(t *testing.T) {
	b := NewBreaker(Config{Window: 4, Threshold: 0.5, Trials: 2})
	// Window not yet full: no trip even at 100% errors.
	for i := 0; i < 3; i++ {
		if v := b.Observe(true); v != VerdictNone {
			t.Fatalf("outcome %d before window fills: verdict %v", i, v)
		}
	}
	if v := b.Observe(true); v != VerdictTrip {
		t.Fatalf("full bad window: verdict %v, want trip", v)
	}
	if !b.Trip() {
		t.Fatal("Trip on a healthy breaker returned false")
	}
	if b.Trip() {
		t.Fatal("second Trip also claimed the transition")
	}
	if b.State() != Quarantined || b.Available() {
		t.Fatalf("state after trip = %v", b.State())
	}
	if b.Quarantines() != 1 {
		t.Fatalf("quarantines = %d, want 1", b.Quarantines())
	}
}

func TestBreakerScoreSlidesWindow(t *testing.T) {
	b := NewBreaker(Config{Window: 4, Threshold: 0.75, Trials: 1})
	outcomes := []bool{true, true, false, false, false, false}
	for _, bad := range outcomes {
		if v := b.Observe(bad); v == VerdictTrip {
			t.Fatalf("tripped below threshold (score %.2f)", b.Score())
		}
	}
	// The two errors slid out of the 4-wide window.
	if s := b.Score(); s != 0 {
		t.Fatalf("score = %.2f after errors aged out, want 0", s)
	}
}

func TestBreakerProbationReadmitsSerially(t *testing.T) {
	b := NewBreaker(Config{Window: 4, Threshold: 0.5, Trials: 3})
	b.Trip()
	b.StartProbation()
	if b.State() != Probation || !b.Available() {
		t.Fatalf("state = %v, want half-open probation", b.State())
	}
	for i := 0; i < 2; i++ {
		if v := b.Observe(false); v != VerdictNone {
			t.Fatalf("trial %d: verdict %v", i, v)
		}
	}
	if v := b.Observe(false); v != VerdictReadmit {
		t.Fatalf("final trial: verdict %v, want readmit", v)
	}
	if b.State() != Healthy || b.Readmissions() != 1 {
		t.Fatalf("after readmission: state %v, readmissions %d", b.State(), b.Readmissions())
	}
}

func TestBreakerProbationBadOutcomeRequarantines(t *testing.T) {
	b := NewBreaker(Config{Window: 4, Threshold: 0.5, Trials: 3})
	b.Trip()
	b.StartProbation()
	b.Observe(false)
	if v := b.Observe(true); v != VerdictTrip {
		t.Fatalf("bad probation outcome: verdict %v, want trip", v)
	}
	if !b.Trip() {
		t.Fatal("re-trip from probation failed")
	}
	if b.State() != Quarantined || b.Quarantines() != 2 {
		t.Fatalf("state %v quarantines %d", b.State(), b.Quarantines())
	}
}

// TestBreakerConcurrentProbationReadmitsOnce is the half-open race the
// serial tests cannot see: many clean verdicts land on a probation breaker
// at once, and exactly one readmission must result — no double-counted
// readmissions, no trials driven below zero, no verdicts after the run
// completed.
func TestBreakerConcurrentProbationReadmitsOnce(t *testing.T) {
	const goroutines = 32
	for round := 0; round < 50; round++ {
		b := NewBreaker(Config{Window: 4, Threshold: 0.5, Trials: 4})
		b.Trip()
		b.StartProbation()
		var wg sync.WaitGroup
		var start sync.WaitGroup
		start.Add(1)
		readmits := make(chan Verdict, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				if v := b.Observe(false); v == VerdictReadmit {
					readmits <- v
				}
			}()
		}
		start.Done()
		wg.Wait()
		close(readmits)
		n := 0
		for range readmits {
			n++
		}
		if n != 1 {
			t.Fatalf("round %d: %d goroutines saw VerdictReadmit, want exactly 1", round, n)
		}
		if b.Readmissions() != 1 {
			t.Fatalf("round %d: readmissions = %d, want 1", round, b.Readmissions())
		}
		if b.State() != Healthy {
			t.Fatalf("round %d: state = %v, want healthy", round, b.State())
		}
	}
}

// TestBreakerConcurrentProbationMixedVerdicts races clean and bad outcomes
// on the last trials: whichever wins, the breaker must end in a legal
// state (healthy with one readmission, or quarantined via exactly one
// successful Trip) and never both.
func TestBreakerConcurrentProbationMixedVerdicts(t *testing.T) {
	for round := 0; round < 50; round++ {
		b := NewBreaker(Config{Window: 4, Threshold: 0.5, Trials: 2})
		b.Trip()
		b.StartProbation()
		var wg sync.WaitGroup
		var start sync.WaitGroup
		start.Add(1)
		var tripped, readmitted int
		var mu sync.Mutex
		for g := 0; g < 16; g++ {
			bad := g%4 == 0
			wg.Add(1)
			go func(bad bool) {
				defer wg.Done()
				start.Wait()
				switch b.Observe(bad) {
				case VerdictTrip:
					if b.Trip() {
						mu.Lock()
						tripped++
						mu.Unlock()
					}
				case VerdictReadmit:
					mu.Lock()
					readmitted++
					mu.Unlock()
				}
			}(bad)
		}
		start.Done()
		wg.Wait()
		if readmitted > 1 {
			t.Fatalf("round %d: %d readmissions", round, readmitted)
		}
		if tripped > 1 {
			t.Fatalf("round %d: %d successful trips", round, tripped)
		}
		switch st := b.State(); st {
		case Healthy, Quarantined, Probation:
		default:
			t.Fatalf("round %d: illegal state %v", round, st)
		}
	}
}

func TestBreakerProbeCadence(t *testing.T) {
	b := NewBreaker(Config{Window: 16, Threshold: 0.5, ProbeEvery: 3, Trials: 1})
	due := 0
	for i := 0; i < 9; i++ {
		if b.Observe(false) == VerdictProbeDue {
			due++
		}
	}
	if due != 3 {
		t.Fatalf("9 outcomes at ProbeEvery=3: %d probes due, want 3", due)
	}
}

func TestBreakerQuarantinedOutcomesIgnored(t *testing.T) {
	b := NewBreaker(Config{Window: 2, Threshold: 0.5, Trials: 1})
	b.Trip()
	for i := 0; i < 8; i++ {
		if v := b.Observe(true); v != VerdictNone {
			t.Fatalf("quarantined observe verdict %v", v)
		}
	}
	if b.Score() != 0 {
		t.Fatalf("quarantined outcomes moved the score to %.2f", b.Score())
	}
}

func TestStateString(t *testing.T) {
	for want, s := range map[string]State{
		"healthy": Healthy, "quarantined": Quarantined, "probation": Probation,
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if got := State(9).String(); got != "State(9)" {
		t.Errorf("unknown state prints %q", got)
	}
}
