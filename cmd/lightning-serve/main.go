// Command lightning-serve runs a Lightning smartNIC as a UDP inference
// server: it trains the selected stand-in model, registers it on the
// photonic datapath, and answers Lightning wire queries.
//
//	lightning-serve -addr :4055 -model digits
//	lightning-serve -workers 8 -max-batch 8 -max-delay 200us
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"time"

	lightning "github.com/lightning-smartnic/lightning"
	"github.com/lightning-smartnic/lightning/internal/nic"
)

// checkModelFlags refuses the flag combinations -model none cannot honour,
// before any file is opened: a bare cluster node has no trained model for
// -save to write, and serves only what a coordinator installs, so a -load
// file would be silently ignored.
func checkModelFlags(model, load, save string) error {
	if model != "none" {
		return nil
	}
	if load != "" {
		return errors.New("-load with -model none: a bare node serves only wire installs; drop -load or name a model")
	}
	if save != "" {
		return errors.New("-save with -model none: a bare node has no trained model to save")
	}
	return nil
}

// checkServeFlags refuses the batching and admission flags the chosen serve
// loop would silently ignore. -workers 1 or less serves through ServeUDP's
// inline reader, which already answers each batched read's queries as one
// matrix pass per model, at once: it has no admission stage, and batches
// form only at the worker pool's admission pop.
func checkServeFlags(workers, maxBatch int, maxDelay time.Duration, admitQueue int, admitBudget time.Duration, admitWeights string) error {
	if maxBatch > 1 && workers <= 1 {
		return errors.New("-max-batch > 1 with -workers <= 1: batches form at the worker pool's admission pop, and the inline reader already serves each read as one pass; add -workers or drop -max-batch")
	}
	if maxDelay != 0 && maxBatch <= 1 {
		return errors.New("-max-delay without -max-batch > 1: there is no partial batch to flush")
	}
	if (admitQueue != 0 || admitBudget != 0 || admitWeights != "") && workers <= 1 {
		return errors.New("-admit-queue, -admit-budget or -admit-weights with -workers <= 1: the inline reader has no admission stage; add -workers")
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":4055", "UDP listen address")
	modelName := flag.String("model", "anomaly", "model to serve: anomaly | iot | digits | none (a bare cluster node: serve nothing until a coordinator installs partitions, and accept those wire installs)")
	epochs := flag.Int("epochs", 25, "training epochs")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	noiseless := flag.Bool("noiseless", false, "disable the analog noise model")
	loadPath := flag.String("load", "", "load a saved model instead of training")
	savePath := flag.String("save", "", "save the trained model to this file")
	workers := flag.Int("workers", 1, "UDP worker pool size (1 = no pool: the reader serves each batched read inline, one matrix pass per model)")
	cores := flag.Int("cores", 1, "photonic core shards (1 = the §6 prototype)")
	maxBatch := flag.Int("max-batch", 1, "pop up to this many same-model queries from admission into one matrix pass (1 = one at a time; needs -workers > 1)")
	maxDelay := flag.Duration("max-delay", 0, "let a partial batch leave after its oldest query waited this long (0 = default; needs -max-batch > 1)")
	statsEvery := flag.Duration("stats", 10*time.Second, "periodic stats line interval (0 disables)")
	probeEvery := flag.Int("probe-every", 0, "known-answer probe cadence in served queries per shard (0 disables)")
	admitQueue := flag.Int("admit-queue", 0, "per-model admission queue bound (0 = default workers*4; needs -workers > 1)")
	admitBudget := flag.Duration("admit-budget", 0, "per-request latency budget; queued requests past it are shed instead of served (0 disables; needs -workers > 1)")
	admitWeights := flag.String("admit-weights", "", "per-model service weights as id:weight pairs, comma-separated (empty = equal; needs -workers > 1)")
	flag.Parse()
	for _, err := range []error{
		checkModelFlags(*modelName, *loadPath, *savePath),
		checkServeFlags(*workers, *maxBatch, *maxDelay, *admitQueue, *admitBudget, *admitWeights),
	} {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			flag.Usage()
			os.Exit(2)
		}
	}

	admission := lightning.AdmissionConfig{MaxQueue: *admitQueue, Budget: *admitBudget}
	if *admitWeights != "" {
		var err error
		if admission.Models, err = nic.ParseAdmitWeights(*admitWeights); err != nil {
			log.Fatalf("-admit-weights: %v", err)
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

	srv, err := lightning.New(lightning.Config{
		Lanes: 2, Noiseless: *noiseless, Seed: *seed, Cores: *cores,
		ProbeEvery:        *probeEvery,
		Batch:             lightning.BatchConfig{MaxBatch: *maxBatch, MaxDelay: *maxDelay},
		Admission:         admission,
		AllowModelInstall: *modelName == "none",
	})
	if err != nil {
		log.Fatal(err)
	}
	if q != nil {
		if err := srv.RegisterModel(id, *modelName, q); err != nil {
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
			*modelName, id, pc.LocalAddr(), srv.Cores())
	} else {
		log.Printf("serving on %s with %d core shard(s), awaiting wire model installs",
			pc.LocalAddr(), srv.Cores())
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
			"served %d | shards [%s] | pending reassembly %d (drops %d, expired %d, oversize %d) | %s",
			m.Served, shards, m.PendingReassembly, m.ReassemblyDrops, m.ReassemblyExpired, m.ReassemblyOversize,
			m.Serve.Line(m.Served))
		if h := m.Health; h.Quarantines > 0 || h.Unavailable > 0 {
			line += fmt.Sprintf(" | health: quarantines %d, readmissions %d, relocks %d/%d fail, probes %d/%d fail, unavailable %d",
				h.Quarantines, h.Readmissions, h.Relocks, h.RelockFailures,
				h.Probes, h.ProbeFailures, h.Unavailable)
		}
		if m.ModelInstalls > 0 || m.ModelInstallErrors > 0 {
			line += fmt.Sprintf(" | installs %d (%d rejected)", m.ModelInstalls, m.ModelInstallErrors)
		}
		if b := m.Batch; b.Queries > 0 {
			line += fmt.Sprintf(" | batch: %d queries / %d flushes (full %d, timer %d, drain %d), max %d",
				b.Queries, b.Flushes, b.FullFlushes, b.TimerFlushes, b.DrainFlushes, b.MaxBatch)
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
					log.Print(statsLine(srv.Metrics()))
				}
			}
		}()
	}

	var serveErr error
	if *workers > 1 {
		serveErr = srv.ServeUDPWorkers(ctx, pc, *workers)
	} else {
		serveErr = srv.ServeUDP(ctx, pc)
	}
	if serveErr != nil {
		log.Fatal(serveErr)
	}
	// The serve loops drain accepted work before returning; Close retires
	// any recovery loop still backing off, and a bounded final Drain guards
	// stragglers from other entry points.
	_ = srv.Close()
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	log.Print("final: ", statsLine(srv.Metrics()))
	fmt.Printf("served %d inference queries\n", srv.Served())
}
