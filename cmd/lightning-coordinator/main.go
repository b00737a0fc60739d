// Command lightning-coordinator fronts a multi-NIC Lightning cluster: it
// splits a model into a layer pipeline, installs the partitions onto
// lightning-serve nodes over the wire, and serves the ordinary Lightning
// protocol on its own UDP socket — scattering each query through the node
// pipeline and gathering the verdict. Nodes that fail trip per-node circuit
// breakers; the coordinator re-plans onto the survivors and keeps answering,
// degrading to explicit error responses only when no viable plan remains.
//
//	lightning-serve -addr :4056 -model none -noiseless &
//	lightning-serve -addr :4057 -model none -noiseless &
//	lightning-coordinator -addr :4055 -nodes 127.0.0.1:4056,127.0.0.1:4057 -synthetic 64
//
// The pipeline runs one stage per live node, capped at the model's layer
// count. Clients (including cmd/lightning-loadgen) need no changes: the
// front door speaks the exact wire protocol a single NIC does.
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
	"strings"
	"time"

	lightning "github.com/lightning-smartnic/lightning"
	"github.com/lightning-smartnic/lightning/internal/cluster"
)

// checkFlags refuses the flag combinations the coordinator would otherwise
// ignore, before any node is dialled. set names the flags given on the
// command line.
func checkFlags(set map[string]bool, load string, synthetic int, replicate bool, hedge time.Duration) error {
	switch {
	case hedge > 0 && !replicate:
		return errors.New("-hedge without -replicate: a hop has no replica to hedge onto")
	case set["depth"] && synthetic <= 0:
		return errors.New("-depth without -synthetic: only the synthetic model has a depth")
	case load != "" && synthetic > 0:
		return errors.New("-load with -synthetic: pick one model source")
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":4055", "UDP listen address for the cluster front door")
	nodes := flag.String("nodes", "", "comma-separated UDP addresses of lightning-serve nodes (run them with -model none, which accepts wire installs)")
	loadPath := flag.String("load", "", "load the model to serve from this file (lightning-serve -save writes it)")
	synthetic := flag.Int("synthetic", 0, "serve the synthetic deep halves model of this input width instead of -load")
	depth := flag.Int("depth", 4, "synthetic model depth in layers (needs -synthetic)")
	modelID := flag.Uint("model-id", 4, "user-facing wire model id the front door answers for")
	replicate := flag.Bool("replicate", false, "install each stage on a second node too (enables -hedge and instant failover)")
	hedge := flag.Duration("hedge", 0, "duplicate a hop onto its replica if the primary is silent this long (0 disables; needs -replicate)")
	budget := flag.Duration("budget", 2*time.Second, "end-to-end request budget")
	hopRetries := flag.Int("hop-retries", 1, "extra attempts per pipeline hop")
	workers := flag.Int("workers", 4, "front-door worker pool size")
	statsEvery := flag.Duration("stats", 10*time.Second, "periodic stats line interval (0 disables)")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(set, *loadPath, *synthetic, *replicate, *hedge); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	if *nodes == "" {
		log.Fatal("-nodes is required (comma-separated lightning-serve addresses)")
	}
	var nodeAddrs []string
	for _, a := range strings.Split(*nodes, ",") {
		if a = strings.TrimSpace(a); a != "" {
			nodeAddrs = append(nodeAddrs, a)
		}
	}

	var model *lightning.TrainedModel
	switch {
	case *synthetic > 0:
		model = lightning.SyntheticDeepHalvesModel(*synthetic, *depth)
	case *loadPath != "":
		f, err := os.Open(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		model, err = lightning.LoadModel(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("one of -load or -synthetic is required")
	}

	coord, err := cluster.New(cluster.Config{
		Nodes:      nodeAddrs,
		Model:      model,
		ModelID:    uint16(*modelID),
		Replicate:  *replicate,
		Hedge:      *hedge,
		Budget:     *budget,
		HopRetries: *hopRetries,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	pc, err := net.ListenPacket("udp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	defer pc.Close()

	m := coord.Metrics()
	log.Printf("serving model id %d on %s: %d-layer model in %d stage(s) over %d node(s)",
		*modelID, pc.LocalAddr(), len(model.Layers), m.Stages, len(nodeAddrs))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	statsLine := func(m cluster.Metrics) string {
		ns := ""
		for i, n := range m.Nodes {
			if i > 0 {
				ns += " "
			}
			ns += fmt.Sprintf("%s:%s", n.Addr, n.State)
		}
		return fmt.Sprintf(
			"served %d, degraded %d | epoch %d (%d stages, %d replans) | nodes [%s] | retries %d, hedges %d, restarts %d | installs %d (%d failed) | %s",
			m.Served, m.Degraded, m.Epoch, m.Stages, m.Replans, ns,
			m.HopRetries, m.Hedges, m.Restarts, m.Installs, m.InstallErrors, m.Serve.Line(m.Served))
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
					log.Print(statsLine(coord.Metrics()))
				}
			}
		}()
	}

	if err := coord.ServeUDP(ctx, pc, *workers); err != nil {
		log.Fatal(err)
	}
	log.Print("final: ", statsLine(coord.Metrics()))
}
