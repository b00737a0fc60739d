package loadgen_test

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	lightning "github.com/lightning-smartnic/lightning"
	"github.com/lightning-smartnic/lightning/internal/loadgen"
)

// sink is a UDP endpoint that swallows every datagram and never answers —
// the null server an open-loop sender must keep offering to regardless.
func sink(t *testing.T) (addr string, stop func()) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64*1024)
		for {
			if _, _, err := pc.ReadFrom(buf); err != nil {
				select {
				case <-done:
					return
				default:
				}
			}
		}
	}()
	return pc.LocalAddr().String(), func() {
		close(done)
		pc.Close()
		wg.Wait()
	}
}

// TestRunAgainstLiveServer drives a real ServeUDPWorkers loop and checks the
// client-side books balance: every offered request is exactly one of
// answered, errored, or timed out, and latency samples exist only for
// successes.
func TestRunAgainstLiveServer(t *testing.T) {
	const width = 64
	n, err := lightning.New(lightning.Config{Lanes: 2, Noiseless: true, Seed: 7, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint16{4, 5} {
		if err := n.RegisterModel(id, "halves", lightning.SyntheticHalvesModel(width)); err != nil {
			t.Fatal(err)
		}
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- n.ServeUDPWorkers(ctx, pc, 4) }()

	var progress strings.Builder
	res, err := loadgen.Run(loadgen.Config{
		Addrs: []string{pc.LocalAddr().String()},
		Models: []loadgen.ModelSpec{
			{ID: 4, Width: width, Weight: 3},
			{ID: 5, Width: width, Weight: 1},
		},
		Rate:        2000,
		Dist:        loadgen.DistPoisson,
		Duration:    300 * time.Millisecond,
		Conns:       2,
		Timeout:     2 * time.Second,
		Seed:        11,
		ReportEvery: 100 * time.Millisecond,
		Progress:    &progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-served; err != nil {
		t.Errorf("ServeUDPWorkers: %v", err)
	}

	if res.Offered == 0 {
		t.Fatal("open-loop run offered nothing")
	}
	if res.Responses == 0 {
		t.Fatal("live server answered nothing")
	}
	if got := res.Responses + res.Errors + res.Timeouts; got != res.Offered {
		t.Errorf("responses (%d) + errors (%d) + timeouts (%d) = %d, want offered %d",
			res.Responses, res.Errors, res.Timeouts, got, res.Offered)
	}
	var sent, lats uint64
	for id, m := range res.PerModel {
		sent += m.Sent
		lats += uint64(len(m.Latencies))
		if got := m.Responses + m.Errors + m.Timeouts; got != m.Sent {
			t.Errorf("model %d: responses+errors+timeouts = %d, want sent %d", id, got, m.Sent)
		}
	}
	if sent != res.Offered {
		t.Errorf("per-model Sent sums to %d, want offered %d", sent, res.Offered)
	}
	if lats != res.Responses {
		t.Errorf("latency samples %d, want one per successful response %d", lats, res.Responses)
	}
	// Weighted mix: model 4 (weight 3) must dominate model 5 (weight 1).
	if res.PerModel[4].Sent <= res.PerModel[5].Sent {
		t.Errorf("weight-3 model sent %d <= weight-1 model's %d", res.PerModel[4].Sent, res.PerModel[5].Sent)
	}
	if !strings.Contains(progress.String(), "[loadgen]") {
		t.Error("no periodic summary line emitted")
	}
}

// TestOfferedSequenceDeterministic: the offered load is a pure function of
// the seed — same seed, same arrival count and same per-model split, even
// against a server that never answers.
func TestOfferedSequenceDeterministic(t *testing.T) {
	addr, stop := sink(t)
	defer stop()
	run := func(seed uint64) *loadgen.Result {
		res, err := loadgen.Run(loadgen.Config{
			Addrs: []string{addr},
			Models: []loadgen.ModelSpec{
				{ID: 1, Width: 32, Weight: 3},
				{ID: 2, Width: 32, Weight: 1},
			},
			Rate:     4000,
			Dist:     loadgen.DistPoisson,
			Duration: 150 * time.Millisecond,
			Timeout:  50 * time.Millisecond,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(99), run(99)
	if a.Offered != b.Offered {
		t.Errorf("same seed offered %d then %d", a.Offered, b.Offered)
	}
	for id := range a.PerModel {
		if a.PerModel[id].Sent != b.PerModel[id].Sent {
			t.Errorf("model %d: same seed sent %d then %d", id, a.PerModel[id].Sent, b.PerModel[id].Sent)
		}
	}
	if c := run(100); c.Offered == a.Offered && c.PerModel[1].Sent == a.PerModel[1].Sent {
		t.Error("different seed reproduced the identical offered sequence (suspicious)")
	}
	// All unanswered: the sink never responds.
	if a.Responses != 0 || a.Timeouts != a.Offered {
		t.Errorf("sink run: responses %d, timeouts %d, offered %d — want all timeouts", a.Responses, a.Timeouts, a.Offered)
	}
}

// TestFixedRateArrivalCount: the fixed distribution offers exactly
// floor(rate * duration) requests, making smoke-test goodput assertions
// exact.
func TestFixedRateArrivalCount(t *testing.T) {
	addr, stop := sink(t)
	defer stop()
	res, err := loadgen.Run(loadgen.Config{
		Addrs:    []string{addr},
		Models:   []loadgen.ModelSpec{{ID: 1, Width: 16}},
		Rate:     1000,
		Dist:     loadgen.DistFixed,
		Duration: 100 * time.Millisecond,
		Timeout:  20 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 100 {
		t.Errorf("fixed 1000 rps over 100ms offered %d, want 100", res.Offered)
	}
}

// TestConfigValidation: nonsense configs are rejected up front.
func TestConfigValidation(t *testing.T) {
	base := loadgen.Config{
		Addrs:    []string{"127.0.0.1:1"},
		Models:   []loadgen.ModelSpec{{ID: 1, Width: 16}},
		Rate:     100,
		Duration: time.Millisecond,
	}
	cases := map[string]func(*loadgen.Config){
		"no models":       func(c *loadgen.Config) { c.Models = nil },
		"zero rate":       func(c *loadgen.Config) { c.Rate = 0 },
		"zero duration":   func(c *loadgen.Config) { c.Duration = 0 },
		"bad dist":        func(c *loadgen.Config) { c.Dist = "bursty" },
		"zero width":      func(c *loadgen.Config) { c.Models = []loadgen.ModelSpec{{ID: 1}} },
		"negative weight": func(c *loadgen.Config) { c.Models = []loadgen.ModelSpec{{ID: 1, Width: 8, Weight: -1}} },
		"duplicate model": func(c *loadgen.Config) { c.Models = []loadgen.ModelSpec{{ID: 1, Width: 8}, {ID: 1, Width: 8}} },
	}
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := loadgen.Run(cfg); err == nil {
			t.Errorf("%s: Run accepted the config", name)
		}
	}
}
