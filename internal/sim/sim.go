package sim

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/lightning-smartnic/lightning/internal/model"
)

// Request is one inference query in a trace.
type Request struct {
	Model   *model.Model
	Arrival time.Duration
}

// Trace is a request sequence in arrival order.
type Trace []Request

// Energy-model constants (§9 "Energy consumption").
const (
	// NICPowerW is a ConnectX 100 Gbps NIC's power, charged against GPU
	// datapath time.
	NICPowerW = 25.0
	// DRAMPowerW is host-DRAM power charged against queueing time.
	DRAMPowerW = 4.0
)

// GenerateTrace draws n requests: Poisson interarrivals at the given rate
// (requests/second), each request uniformly choosing a model ("All DNN
// models' inference queries have an equal probability of occurrence").
func GenerateTrace(models []*model.Model, n int, ratePerSec float64, seed uint64) Trace {
	rng := rand.New(rand.NewPCG(seed, 0x7acE))
	var t float64
	tr := make(Trace, 0, n)
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / ratePerSec
		tr = append(tr, Request{
			Model:   models[rng.IntN(len(models))],
			Arrival: time.Duration(t * 1e9),
		})
	}
	return tr
}

// MeanServiceTime returns the expected per-request computation latency of an
// accelerator under a uniform model mix — used to calibrate arrival rates to
// a utilization target.
func MeanServiceTime(a *Accelerator, models []*model.Model) time.Duration {
	var sum time.Duration
	for _, m := range models {
		sum += a.Compute(m)
	}
	return sum / time.Duration(len(models))
}

// RateForUtilization returns the Poisson arrival rate (req/s) that drives
// the accelerator to the target utilization. The paper sets the rate so
// "the average utilization of the most congested accelerator is ≈90%-99%".
func RateForUtilization(a *Accelerator, models []*model.Model, util float64) float64 {
	mean := MeanServiceTime(a, models).Seconds()
	return util * float64(a.Servers) / mean
}

// Served is one request's simulated outcome.
type Served struct {
	Model    *model.Model
	Datapath time.Duration // t_d
	Queue    time.Duration // t_q: waiting in host DRAM for a free core
	Compute  time.Duration // t_c
}

// ServeTime is the §9 inference serve time: t_d + t_q + t_c.
func (s Served) ServeTime() time.Duration { return s.Datapath + s.Queue + s.Compute }

// EnergyJoules applies the §9 energy model: computation at the
// accelerator's power, queueing at DRAM power, and datapath at NIC power —
// except that Lightning's datapath energy is folded into its own power
// ("For Lightning, the computation energy contains the datapath energy
// consumption because the packet I/O function is integrated into
// Lightning's datapath").
func (s Served) EnergyJoules(a *Accelerator) float64 {
	e := s.Queue.Seconds() * DRAMPowerW
	if a.Platform.Name == "Lightning" {
		e += (s.Compute.Seconds() + s.Datapath.Seconds()) * a.Platform.PowerW
	} else {
		e += s.Compute.Seconds()*a.Platform.PowerW + s.Datapath.Seconds()*NICPowerW
	}
	return e
}

// serverHeap orders compute contexts by the time they become free.
type serverHeap []time.Duration

func (h serverHeap) Len() int           { return len(h) }
func (h serverHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h serverHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *serverHeap) Push(x any)        { *h = append(*h, x.(time.Duration)) }
func (h *serverHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// Run simulates the accelerator serving the trace: requests pass their
// datapath stage, wait FIFO for the earliest-free compute context, then
// compute. It returns per-request outcomes in trace order.
func Run(a *Accelerator, tr Trace) []Served {
	servers := a.Servers
	if servers < 1 {
		servers = 1
	}
	free := make(serverHeap, servers)
	heap.Init(&free)
	out := make([]Served, 0, len(tr))
	for _, req := range tr {
		s := Served{
			Model:    req.Model,
			Datapath: a.Datapath(req.Model),
			Compute:  a.Compute(req.Model),
		}
		ready := req.Arrival + s.Datapath
		freeAt := heap.Pop(&free).(time.Duration)
		start := ready
		if freeAt > start {
			start = freeAt
		}
		s.Queue = start - ready
		heap.Push(&free, start+s.Compute)
		out = append(out, s)
	}
	return out
}

// ModelStats aggregates outcomes per model.
type ModelStats struct {
	Model       *model.Model
	Requests    int
	MeanServe   time.Duration
	MeanEnergyJ float64
}

// Aggregate groups served requests by model.
func Aggregate(a *Accelerator, served []Served) []ModelStats {
	byName := map[string]*ModelStats{}
	var order []string
	for _, s := range served {
		st, ok := byName[s.Model.Name]
		if !ok {
			st = &ModelStats{Model: s.Model}
			byName[s.Model.Name] = st
			order = append(order, s.Model.Name)
		}
		st.Requests++
		st.MeanServe += s.ServeTime()
		st.MeanEnergyJ += s.EnergyJoules(a)
	}
	out := make([]ModelStats, 0, len(order))
	for _, name := range order {
		st := byName[name]
		if st.Requests > 0 {
			st.MeanServe /= time.Duration(st.Requests)
			st.MeanEnergyJ /= float64(st.Requests)
		}
		out = append(out, *st)
	}
	return out
}

// Comparison is the Fig 21/22 result for one model against one baseline.
type Comparison struct {
	Model         string
	Baseline      string
	Speedup       float64 // baseline serve / Lightning serve
	EnergySavings float64 // baseline energy / Lightning energy
}

// CompareConfig parameterizes the §9 experiment.
type CompareConfig struct {
	Models []*model.Model
	// Requests per trace and number of randomized traces (the paper uses
	// ten traces; the default is five of 1500 requests).
	Requests, Traces int
	// Utilization targets the most congested (baseline) accelerator.
	Utilization float64
	Seed        uint64
}

// DefaultCompareConfig returns the §9 setup.
func DefaultCompareConfig() CompareConfig {
	return CompareConfig{
		Models:      model.SimulationModels(),
		Requests:    1500,
		Traces:      5,
		Utilization: 0.95,
		Seed:        1,
	}
}

// Compare runs the Fig 21/22 experiment: for each baseline, arrival rates
// calibrated to its utilization target, identical traces replayed on the
// baseline and on Lightning, speedups and energy savings averaged across
// traces.
func Compare(cfg CompareConfig) ([]Comparison, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("sim: no models")
	}
	light := NewLightning()
	var out []Comparison
	for _, bench := range Benchmarks() {
		rate := RateForUtilization(bench, cfg.Models, cfg.Utilization)
		serveSum := map[string]float64{}
		serveSumL := map[string]float64{}
		energySum := map[string]float64{}
		energySumL := map[string]float64{}
		for t := 0; t < cfg.Traces; t++ {
			tr := GenerateTrace(cfg.Models, cfg.Requests, rate, cfg.Seed+uint64(t)*1000)
			for _, st := range Aggregate(bench, Run(bench, tr)) {
				serveSum[st.Model.Name] += st.MeanServe.Seconds()
				energySum[st.Model.Name] += st.MeanEnergyJ
			}
			for _, st := range Aggregate(light, Run(light, tr)) {
				serveSumL[st.Model.Name] += st.MeanServe.Seconds()
				energySumL[st.Model.Name] += st.MeanEnergyJ
			}
		}
		for _, m := range cfg.Models {
			out = append(out, Comparison{
				Model:         m.Name,
				Baseline:      bench.Platform.Name,
				Speedup:       serveSum[m.Name] / serveSumL[m.Name],
				EnergySavings: energySum[m.Name] / energySumL[m.Name],
			})
		}
	}
	return out, nil
}

// UtilizationPoint is one sample of the load sweep: mean serve times at one
// utilization target.
type UtilizationPoint struct {
	Utilization    float64
	BaselineServe  time.Duration
	LightningServe time.Duration
}

// Speedup is the serve-time ratio at this load point.
func (p UtilizationPoint) Speedup() float64 {
	return float64(p.BaselineServe) / float64(p.LightningServe)
}

// UtilizationSweep replays traces at increasing baseline utilization and
// reports how queueing amplifies Lightning's advantage — the mechanism
// behind Fig 21's magnitudes ("Pushing the inference request arrival rate
// large will incur significant queuing overheads").
func UtilizationSweep(bench *Accelerator, models []*model.Model, utils []float64, requests int, seed uint64) []UtilizationPoint {
	light := NewLightning()
	out := make([]UtilizationPoint, 0, len(utils))
	for _, u := range utils {
		rate := RateForUtilization(bench, models, u)
		tr := GenerateTrace(models, requests, rate, seed)
		var sumB, sumL time.Duration
		for _, s := range Run(bench, tr) {
			sumB += s.ServeTime()
		}
		for _, s := range Run(light, tr) {
			sumL += s.ServeTime()
		}
		out = append(out, UtilizationPoint{
			Utilization:    u,
			BaselineServe:  sumB / time.Duration(len(tr)),
			LightningServe: sumL / time.Duration(len(tr)),
		})
	}
	return out
}

// AverageByBaseline reduces comparisons to the headline per-baseline means
// (the "337×, 329×, and 42×" numbers).
func AverageByBaseline(cs []Comparison) map[string][2]float64 {
	sums := map[string][2]float64{}
	counts := map[string]int{}
	for _, c := range cs {
		s := sums[c.Baseline]
		s[0] += c.Speedup
		s[1] += c.EnergySavings
		sums[c.Baseline] = s
		counts[c.Baseline]++
	}
	out := map[string][2]float64{}
	for b, s := range sums {
		out[b] = [2]float64{s[0] / float64(counts[b]), s[1] / float64(counts[b])}
	}
	return out
}
