// Command lightning-loadgen is the open-loop load generator for Lightning
// UDP inference servers: it offers Poisson or fixed-rate traffic across one
// or more models, measures per-model latency percentiles and goodput, and
// emits a machine-readable JSON load report. With -sweep it walks a series
// of offered-load levels and produces a saturation curve; with -self it
// spins an in-process server first, so one command yields a matched
// client+server view with zero setup (this is how the CI smoke job runs).
// -addr takes a comma-separated list: socket i dials address i mod N, so
// several NICs or coordinator front doors share the load.
//
//	lightning-loadgen -addr 127.0.0.1:4055 -models 1:256 -rate 2000 -duration 5s
//	lightning-loadgen -addr 10.0.0.1:4055,10.0.0.2:4055 -conns 4 -models 1:256
//	lightning-loadgen -self -workers 4 -models 4:256:3,5:256:1 -sweep 1000,2000,4000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	lightning "github.com/lightning-smartnic/lightning"
	"github.com/lightning-smartnic/lightning/internal/loadgen"
	"github.com/lightning-smartnic/lightning/internal/nic"
	"github.com/lightning-smartnic/lightning/internal/stats"
)

// checkFlags refuses the flag combinations that would load the wrong
// server or leave one unloaded, before any socket is opened: -self serves
// in-process, so an -addr beside it would be loaded instead; and with
// fewer sockets than addresses some address would get none.
func checkFlags(self bool, addrs []string, conns int) error {
	switch {
	case self && len(addrs) > 0:
		return errors.New("-self with -addr: -self loads its in-process server; drop one")
	case !self && len(addrs) == 0:
		return errors.New("need -addr (or -self)")
	case conns < len(addrs):
		return fmt.Errorf("-conns %d below the %d -addr addresses: socket i dials address i mod N, so some would get no socket", conns, len(addrs))
	}
	return nil
}

func main() {
	addr := flag.String("addr", "", "comma-separated server UDP addresses; socket i dials address i mod N (omit with -self)")
	modelsFlag := flag.String("models", "1:256", "traffic mix as id:width[:weight] pairs, comma-separated")
	rate := flag.Float64("rate", 1000, "aggregate offered load, requests/second")
	sweep := flag.String("sweep", "", "comma-separated offered-load series (overrides -rate, one point per level)")
	dist := flag.String("dist", loadgen.DistPoisson, "arrival process: poisson | fixed")
	duration := flag.Duration("duration", 5*time.Second, "sending window per point")
	conns := flag.Int("conns", 2, "parallel UDP sockets (at least one per -addr address)")
	seed := flag.Uint64("seed", 1, "deterministic seed for arrivals and model picks")
	reportEvery := flag.Duration("report", time.Second, "periodic summary interval (0 disables)")
	out := flag.String("out", "", "write the JSON load report to this file")
	minGoodput := flag.Float64("min-goodput", 0, "exit nonzero unless peak goodput reaches this many rps")
	maxShedFrac := flag.Float64("max-shed-frac", 1, "exit nonzero if the lowest-rate point sheds more than this fraction")

	self := flag.Bool("self", false, "serve an in-process synthetic-model server instead of targeting -addr")
	workers := flag.Int("workers", 4, "-self: UDP worker pool size")
	cores := flag.Int("cores", 2, "-self: photonic core shards")
	admitQueue := flag.Int("admit-queue", 0, "-self: per-model admission queue bound (0 = default workers*4)")
	admitBudget := flag.Duration("admit-budget", 0, "-self: per-request latency budget; queued requests past it are shed (0 disables)")
	admitWeights := flag.String("admit-weights", "", "-self: per-model service weights as id:weight pairs, comma-separated")
	flag.Parse()
	var addrs []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if err := checkFlags(*self, addrs, *conns); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	models, err := parseModels(*modelsFlag)
	if err != nil {
		log.Fatal(err)
	}
	rates, err := parseSweep(*sweep, *rate)
	if err != nil {
		log.Fatal(err)
	}

	admission := lightning.AdmissionConfig{MaxQueue: *admitQueue, Budget: *admitBudget}
	if *admitWeights != "" {
		admission.Models, err = nic.ParseAdmitWeights(*admitWeights)
		if err != nil {
			log.Fatalf("-admit-weights: %v", err)
		}
	}

	report := loadgen.NewReport(*dist, *seed, *conns)
	if *self {
		report.Workers = *workers
	}
	ctx := context.Background()
	for _, r := range rates {
		point, err := runPoint(ctx, pointConfig{
			addrs: addrs, models: models, rate: r, dist: *dist,
			duration: *duration, conns: *conns,
			seed: *seed, reportEvery: *reportEvery,
			self: *self, workers: *workers, cores: *cores, admission: admission,
		})
		if err != nil {
			log.Fatal(err)
		}
		report.Points = append(report.Points, point)
		log.Printf("point %8.0f rps: achieved %8.1f, goodput %8.1f, shed %5.1f%%, p50 %7.2fms p99 %7.2fms",
			point.OfferedRPS, point.AchievedRPS, point.GoodputRPS, point.ShedFrac*100,
			point.Latency.P50Ms, point.Latency.P99Ms)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%d points)", *out, len(report.Points))
	} else if err := report.WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// CI gates: peak goodput across the series, shed at the gentlest point.
	peak, minShed := 0.0, 1.0
	for _, p := range report.Points {
		if p.GoodputRPS > peak {
			peak = p.GoodputRPS
		}
		if p.ShedFrac < minShed {
			minShed = p.ShedFrac
		}
	}
	if peak < *minGoodput {
		log.Fatalf("gate: peak goodput %.1f rps below -min-goodput %.1f", peak, *minGoodput)
	}
	if len(report.Points) > 0 && minShed > *maxShedFrac {
		log.Fatalf("gate: best-point shed fraction %.3f above -max-shed-frac %.3f", minShed, *maxShedFrac)
	}
}

type pointConfig struct {
	addrs       []string
	models      []loadgen.ModelSpec
	rate        float64
	dist        string
	duration    time.Duration
	conns       int
	seed        uint64
	reportEvery time.Duration

	self      bool
	workers   int
	cores     int
	admission lightning.AdmissionConfig
}

// runPoint measures one offered-load level. In -self mode each point gets a
// fresh server, so server counters are per-point and the sweep's levels
// never contaminate each other. The context bounds the in-process server's
// lifetime (the open-loop driver itself is duration-bound).
func runPoint(ctx context.Context, pc pointConfig) (loadgen.Point, error) {
	addrs := pc.addrs
	var srv *lightning.NIC
	var stop func() error
	if pc.self {
		var addr string
		var err error
		srv, addr, stop, err = startSelfServer(ctx, pc)
		if err != nil {
			return loadgen.Point{}, err
		}
		addrs = []string{addr}
	}
	res, runErr := loadgen.Run(loadgen.Config{
		Addrs: addrs, Models: pc.models, Rate: pc.rate, Dist: pc.dist,
		Duration: pc.duration, Conns: pc.conns,
		Seed: pc.seed, ReportEvery: pc.reportEvery, Progress: os.Stderr,
	})
	var serveErr error
	if stop != nil {
		serveErr = stop()
	}
	if runErr != nil {
		return loadgen.Point{}, runErr
	}
	if serveErr != nil {
		return loadgen.Point{}, fmt.Errorf("self server: %w", serveErr)
	}

	point := loadgen.Point{
		OfferedRPS:  pc.rate,
		AchievedRPS: res.OfferedRPS(),
		GoodputRPS:  res.GoodputRPS(),
		ShedFrac:    res.ShedFrac(),
		DurationS:   res.Elapsed.Seconds(),
		Latency:     summarize(res.AllLatencies()),
	}
	for _, spec := range pc.models {
		m := res.PerModel[spec.ID]
		ml := loadgen.ModelLoad{
			Model: spec.ID, Sent: m.Sent, Responses: m.Responses,
			Errors: m.Errors, Timeouts: m.Timeouts,
			Latency: summarize(m.Latencies),
		}
		if res.Elapsed > 0 {
			ml.GoodputRPS = float64(m.Responses) / res.Elapsed.Seconds()
		}
		point.Models = append(point.Models, ml)
	}
	if srv != nil {
		m := srv.Metrics()
		point.Server = &loadgen.ServerCounters{
			Served:       m.Served,
			QueueFull:    m.Serve.QueueFull,
			Shed:         m.Serve.Shed,
			DecodeErrors: m.Serve.DecodeErrors,
			WriteErrors:  m.Serve.WriteErrors,
		}
		if len(m.Serve.AdmissionDrops) > 0 {
			point.Server.AdmissionDrops = m.Serve.AdmissionDrops
		}
	}
	return point, nil
}

// startSelfServer builds an in-process server with one synthetic halves
// model per mix entry and serves it on an ephemeral loopback port. The serve
// loop's context derives from the caller's, so the caller's cancellation
// reaches the server even before stop is called.
func startSelfServer(ctx context.Context, pc pointConfig) (*lightning.NIC, string, func() error, error) {
	n, err := lightning.New(lightning.Config{
		Lanes: 2, Noiseless: true, Seed: 1, Cores: pc.cores,
		Admission: pc.admission,
	})
	if err != nil {
		return nil, "", nil, err
	}
	for _, spec := range pc.models {
		name := fmt.Sprintf("halves-%d", spec.ID)
		if err := n.RegisterModel(spec.ID, name, lightning.SyntheticHalvesModel(spec.Width)); err != nil {
			return nil, "", nil, err
		}
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- n.ServeUDPWorkers(sctx, conn, pc.workers) }()
	stop := func() error {
		cancel()
		err := <-served
		_ = n.Close()
		if cerr := conn.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return n, conn.LocalAddr().String(), stop, nil
}

// summarize cuts the report percentiles from raw latency seconds.
func summarize(latencies []float64) loadgen.LatencySummary {
	if len(latencies) == 0 {
		return loadgen.LatencySummary{}
	}
	cdf := stats.NewCDF(latencies)
	return loadgen.LatencySummary{
		Samples: cdf.Len(),
		P50Ms:   cdf.Percentile(0.50) * 1e3,
		P90Ms:   cdf.Percentile(0.90) * 1e3,
		P99Ms:   cdf.Percentile(0.99) * 1e3,
		MaxMs:   cdf.Percentile(1) * 1e3,
	}
}

// parseModels parses "id:width[:weight]" pairs.
func parseModels(s string) ([]loadgen.ModelSpec, error) {
	var specs []loadgen.ModelSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("-models entry %q: want id:width[:weight]", part)
		}
		id, err := strconv.ParseUint(fields[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("-models entry %q: model id: %w", part, err)
		}
		width, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("-models entry %q: width: %w", part, err)
		}
		spec := loadgen.ModelSpec{ID: uint16(id), Width: width, Weight: 1}
		if len(fields) == 3 {
			if spec.Weight, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("-models entry %q: weight: %w", part, err)
			}
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-models %q: empty mix", s)
	}
	return specs, nil
}

// parseSweep parses the offered-load series, defaulting to a single point.
func parseSweep(s string, fallback float64) ([]float64, error) {
	if s == "" {
		return []float64{fallback}, nil
	}
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("-sweep entry %q: %w", part, err)
		}
		if r <= 0 {
			return nil, fmt.Errorf("-sweep entry %q: rate must be positive", part)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-sweep %q: no rates", s)
	}
	return rates, nil
}
