package lightning

import (
	"net"
	"testing"
	"time"
)

// silentClient builds a Client aimed at a listener that never answers, with
// the sleep seam recording the backoff schedule instead of waiting it out.
func silentClient(t *testing.T, seed uint64, retries int, backoff time.Duration) (*Client, *[]time.Duration) {
	t.Helper()
	srv, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c, err := Dial(srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	c.Timeout = 2 * time.Millisecond
	c.Retries = retries
	c.RetryBackoff = backoff
	c.jitterSeed = seed
	waits := &[]time.Duration{}
	c.sleep = func(d time.Duration) { *waits = append(*waits, d) }
	return c, waits
}

// TestClientBackoffCapAndJitter is the backoff regression test: against a
// silent server every attempt times out, and the recorded schedule must be
// the doubling-with-cap sequence with each wait jittered into [base/2, base]
// — never above the cap, never below half the base, and one wait per retry.
func TestClientBackoffCapAndJitter(t *testing.T) {
	const retries = 4
	c, waits := silentClient(t, 42, retries, 250*time.Millisecond)
	if _, _, err := c.Infer(1, make([]Code, 4)); err == nil {
		t.Fatal("Infer against a silent server succeeded")
	}
	// Bases double from RetryBackoff and clamp at the 1s cap:
	// 250ms, 500ms, 1s, 1s.
	bases := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second, time.Second}
	if len(*waits) != retries {
		t.Fatalf("recorded %d waits, want %d (one per retry)", len(*waits), retries)
	}
	for i, w := range *waits {
		lo, hi := bases[i]/2, bases[i]
		if w < lo || w > hi {
			t.Errorf("wait %d = %v, want in [%v, %v]", i, w, lo, hi)
		}
	}
	for i, w := range *waits {
		if w > time.Second {
			t.Errorf("wait %d = %v exceeds the 1s cap", i, w)
		}
	}
}

// TestClientBackoffDeepScheduleStaysCapped: a deep retry schedule must
// plateau at the 1s cap instead of growing without bound — the
// difference between a bounded stall and a multi-minute hang.
func TestClientBackoffDeepScheduleStaysCapped(t *testing.T) {
	c, waits := silentClient(t, 7, 8, 250*time.Millisecond)
	if _, _, err := c.Infer(1, make([]Code, 4)); err == nil {
		t.Fatal("Infer against a silent server succeeded")
	}
	if len(*waits) != 8 {
		t.Fatalf("recorded %d waits, want 8", len(*waits))
	}
	// From the 3rd retry on the base is pinned at the cap.
	for i := 2; i < len(*waits); i++ {
		w := (*waits)[i]
		if w < 500*time.Millisecond || w > time.Second {
			t.Errorf("capped wait %d = %v, want in [500ms, 1s]", i, w)
		}
	}
}

// TestClientBackoffReproducibleBySeed: a fixed jitter seed replays the exact
// backoff schedule — the property that makes retry storms debuggable — while
// the jitter still varies across attempts (not a constant offset).
func TestClientBackoffReproducibleBySeed(t *testing.T) {
	run := func() []time.Duration {
		c, waits := silentClient(t, 99, 5, 250*time.Millisecond)
		if _, _, err := c.Infer(1, make([]Code, 4)); err == nil {
			t.Fatal("Infer against a silent server succeeded")
		}
		return *waits
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 5 {
		t.Fatalf("schedules %d vs %d waits, want 5", len(a), len(b))
	}
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wait %d: %v vs %v — same seed must replay the same schedule", i, a[i], b[i])
		}
		// Same base appears at indices 2..4 (capped); jitter should not
		// collapse them to one value every run.
		if i > 2 && a[i] != a[2] {
			varied = true
		}
	}
	if !varied {
		t.Log("note: capped waits happened to coincide; jitter range is small")
	}
}
