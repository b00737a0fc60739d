// Command lightning-serve runs a Lightning smartNIC as a UDP inference
// server: it trains the selected stand-in model, registers it on the
// photonic datapath, and answers Lightning wire queries.
//
//	lightning-serve -addr :4055 -model digits
//	lightning-serve -workers 8 -max-batch 8 -max-delay 200us
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	lightning "github.com/lightning-smartnic/lightning"
)

// parseAdmitWeights parses "id:weight" pairs into per-model admission
// policies (the same syntax lightning-loadgen's -admit-weights takes).
func parseAdmitWeights(s string) (map[uint16]lightning.AdmitPolicy, error) {
	out := map[uint16]lightning.AdmitPolicy{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 2 {
			return nil, fmt.Errorf("-admit-weights entry %q: want id:weight", part)
		}
		id, err := strconv.ParseUint(fields[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("-admit-weights entry %q: model id: %w", part, err)
		}
		w, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("-admit-weights entry %q: weight: %w", part, err)
		}
		out[uint16(id)] = lightning.AdmitPolicy{Weight: w}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-admit-weights %q: no entries", s)
	}
	return out, nil
}

func main() {
	addr := flag.String("addr", ":4055", "UDP listen address")
	modelName := flag.String("model", "anomaly", "model to serve: anomaly | iot | digits | none (serve nothing until a coordinator installs partitions; implies -allow-install)")
	epochs := flag.Int("epochs", 25, "training epochs")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	noiseless := flag.Bool("noiseless", false, "disable the analog noise model")
	loadPath := flag.String("load", "", "load a saved model instead of training")
	savePath := flag.String("save", "", "save the trained model to this file")
	workers := flag.Int("workers", 1, "UDP worker pool size")
	cores := flag.Int("cores", 1, "photonic core shards (1 = the §6 prototype)")
	maxBatch := flag.Int("max-batch", 1, "coalesce up to this many same-model queries into one matrix pass (1 = no queue: every query runs inline as a batch of one)")
	maxDelay := flag.Duration("max-delay", 0, "flush a partial batch after this long (0 = default; needs -max-batch > 1)")
	statsEvery := flag.Duration("stats", 10*time.Second, "periodic stats line interval (0 disables)")
	reassemblyTTL := flag.Duration("reassembly-ttl", 0, "partial-query reassembly TTL (0 = default)")
	healthWindow := flag.Int("health-window", 0, "per-shard health window in served queries (0 = default)")
	healthThreshold := flag.Float64("health-threshold", 0, "windowed error rate that quarantines a shard (0 = default)")
	probeEvery := flag.Int("probe-every", 0, "known-answer probe cadence in served queries per shard (0 disables)")
	admitQueue := flag.Int("admit-queue", 0, "per-model admission queue bound (0 = default workers*4)")
	admitBudget := flag.Duration("admit-budget", 0, "per-request latency budget; queued requests past it are shed instead of served (0 disables)")
	admitWeights := flag.String("admit-weights", "", "per-model service weights as id:weight pairs, comma-separated (empty = equal)")
	drainTimeout := flag.Duration("drain-timeout", 0, "bound on the shutdown drain of in-flight work (0 = default 5s)")
	allowInstall := flag.Bool("allow-install", false, "accept wire model installs (CtrlInstallModel) — required for cluster nodes behind lightning-coordinator")
	rxBatch := flag.Int("rx-batch", 0, "datagrams per batched read — one recvmmsg on the Linux fast path (0 = default 16)")
	txLinger := flag.Duration("tx-linger", 0, "worker-pool responses wait up to this long to share a batched write (0 = write through immediately)")
	txCoalesce := flag.Bool("tx-coalesce", false, "pack same-destination responses as concatenated frames in one datagram (receivers must unpack coalesced frames)")
	wireMTU := flag.Int("wire-mtu", 0, "datagram byte bound for -tx-coalesce packing (0 = default 1400)")
	wireFallback := flag.Bool("wire-fallback", false, "force the portable single-message wire path (no recvmmsg/sendmmsg)")
	flag.Parse()

	admission := lightning.AdmissionConfig{MaxQueue: *admitQueue, Budget: *admitBudget}
	if *admitWeights != "" {
		var err error
		if admission.Models, err = parseAdmitWeights(*admitWeights); err != nil {
			log.Fatal(err)
		}
	}

	var train *lightning.Dataset
	var hidden []int
	var id uint16
	switch *modelName {
	case "anomaly":
		train, hidden, id = lightning.AnomalyDataset(2000, *seed), []int{32, 16}, 1
	case "iot":
		train, hidden, id = lightning.IoTTrafficDataset(2000, *seed), []int{32, 16}, 2
	case "digits":
		train, hidden, id = lightning.DigitsDataset(3000, *seed), []int{64, 32}, 3
	case "none":
		// A bare cluster node: no local model, everything it serves arrives
		// over the wire from a coordinator.
		*allowInstall = true
	default:
		log.Fatalf("unknown model %q", *modelName)
	}

	var q *lightning.TrainedModel
	if *modelName == "none" {
		// nothing to train, load or save
	} else if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		q, err = lightning.LoadModel(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded model from %s: 8-bit top-1 %.1f%% on fresh data",
			*loadPath, lightning.Evaluate(q, train)*100)
	} else {
		log.Printf("training %s model (%d examples, hidden %v, %d epochs)...",
			*modelName, len(train.Examples), hidden, *epochs)
		var floatAcc, intAcc float64
		var err error
		q, floatAcc, intAcc, err = lightning.Train(train, lightning.TrainOptions{
			Hidden: hidden, Epochs: *epochs, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("trained: float top-1 %.1f%%, 8-bit top-1 %.1f%%", floatAcc*100, intAcc*100)
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := lightning.SaveModel(f, q); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("saved model to %s", *savePath)
	}

	nic, err := lightning.New(lightning.Config{
		Lanes: 2, Noiseless: *noiseless, Seed: *seed, Cores: *cores,
		ReassemblyTTL: *reassemblyTTL,
		HealthWindow:  *healthWindow, HealthThreshold: *healthThreshold,
		ProbeEvery:        *probeEvery,
		Batch:             lightning.BatchConfig{MaxBatch: *maxBatch, MaxDelay: *maxDelay},
		Admission:         admission,
		DrainTimeout:      *drainTimeout,
		AllowModelInstall: *allowInstall,
		Wire: lightning.WireConfig{
			RxBatch:       *rxBatch,
			TxLinger:      *txLinger,
			TxCoalesce:    *txCoalesce,
			MTU:           *wireMTU,
			ForceFallback: *wireFallback,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if q != nil {
		if err := nic.RegisterModel(id, *modelName, q); err != nil {
			log.Fatal(err)
		}
	}

	pc, err := net.ListenPacket("udp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	defer pc.Close()
	if q != nil {
		log.Printf("serving model %q (id %d) on %s with %d core shard(s)",
			*modelName, id, pc.LocalAddr(), nic.Cores())
	} else {
		log.Printf("serving on %s with %d core shard(s), awaiting wire model installs",
			pc.LocalAddr(), nic.Cores())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	statsLine := func(m lightning.Metrics) string {
		shards := ""
		for i, h := range m.Shards {
			if i > 0 {
				shards += " "
			}
			shards += fmt.Sprintf("%d:%s", i, h.State)
		}
		line := fmt.Sprintf(
			"served %d | shards [%s] | pending reassembly %d (drops %d, expired %d, oversize %d) | tx %d frames / %d bytes | %s",
			m.Served, shards, m.PendingReassembly, m.ReassemblyDrops, m.ReassemblyExpired, m.ReassemblyOversize,
			m.TxFrames, m.TxBytes, m.Serve.Line(m.Served))
		if h := m.Health; h.Quarantines > 0 || h.Unavailable > 0 {
			line += fmt.Sprintf(" | health: quarantines %d, readmissions %d, relocks %d/%d fail, probes %d/%d fail, unavailable %d",
				h.Quarantines, h.Readmissions, h.Relocks, h.RelockFailures,
				h.Probes, h.ProbeFailures, h.Unavailable)
		}
		if m.ModelInstalls > 0 || m.ModelInstallErrors > 0 {
			line += fmt.Sprintf(" | installs %d (%d rejected)", m.ModelInstalls, m.ModelInstallErrors)
		}
		if b := m.Batch; b.Queries > 0 || m.BatchPending > 0 {
			line += fmt.Sprintf(" | batch: %d queries / %d flushes (full %d, timer %d, drain %d), max %d, pending %d",
				b.Queries, b.Flushes, b.FullFlushes, b.TimerFlushes, b.DrainFlushes,
				b.MaxBatch, m.BatchPending)
		}
		return line
	}
	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					log.Print(statsLine(nic.Metrics()))
				}
			}
		}()
	}

	var serveErr error
	if *workers > 1 {
		serveErr = nic.ServeUDPWorkers(ctx, pc, *workers)
	} else {
		serveErr = nic.ServeUDP(ctx, pc)
	}
	if serveErr != nil {
		log.Fatal(serveErr)
	}
	// The serve loops drain accepted work before returning; Close retires
	// any recovery loop still backing off, and a bounded final Drain guards
	// stragglers from other entry points.
	_ = nic.Close()
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := nic.Drain(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	log.Print("final: ", statsLine(nic.Metrics()))
	fmt.Printf("served %d inference queries\n", nic.Served())
}
