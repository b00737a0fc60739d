// Command lightning-client sends inference queries to a lightning-serve
// instance and reports the round-trip latency distribution.
//
//	lightning-client -addr 127.0.0.1:4055 -model anomaly -n 100
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	lightning "github.com/lightning-smartnic/lightning"
	"github.com/lightning-smartnic/lightning/internal/stats"
)

func main() {
	addr := flag.String("addr", fmt.Sprintf("127.0.0.1:%d", lightning.InferencePort), "server UDP address")
	modelName := flag.String("model", "anomaly", "model to query: anomaly | iot | digits")
	n := flag.Int("n", 100, "number of queries")
	seed := flag.Uint64("seed", 99, "dataset seed (use one the server didn't train on)")
	timeout := flag.Duration("timeout", 2*time.Second, "per-attempt round-trip timeout")
	retries := flag.Int("retries", 2, "resend attempts after a timeout (lost fragments/responses)")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "initial retry backoff (doubles per attempt)")
	tolerateErrors := flag.Bool("tolerate-errors", false,
		"count Err-flagged responses (e.g. a degraded server with quarantined shards) instead of aborting")
	flag.Parse()

	var set *lightning.Dataset
	var id uint16
	switch *modelName {
	case "anomaly":
		set, id = lightning.AnomalyDataset(*n, *seed), 1
	case "iot":
		set, id = lightning.IoTTrafficDataset(*n, *seed), 2
	case "digits":
		set, id = lightning.DigitsDataset(*n, *seed), 3
	default:
		log.Fatalf("unknown model %q", *modelName)
	}

	client, err := lightning.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	client.Timeout = *timeout
	client.Retries = *retries
	client.RetryBackoff = *backoff

	var latencies []float64
	correct, serverErrors := 0, 0
	for i, ex := range set.Examples {
		resp, rtt, err := client.Infer(id, ex.X)
		var se *lightning.ServerError
		if errors.As(err, &se) {
			// A degraded server (every shard quarantined mid-recovery)
			// answers honestly with Err-flagged responses; with
			// -tolerate-errors the run rides through and reports them.
			if *tolerateErrors {
				serverErrors++
				continue
			}
			log.Fatalf("query %d: %v (is model %q registered? rerun with -tolerate-errors to ride out a degraded server)", i, se, *modelName)
		}
		if err != nil {
			log.Fatalf("query %d: %v", i, err)
		}
		if int(resp.Class) == ex.Label {
			correct++
		}
		latencies = append(latencies, float64(rtt.Microseconds()))
	}
	if len(latencies) == 0 {
		log.Fatalf("no queries answered (%d server errors)", serverErrors)
	}
	cdf := stats.NewCDF(latencies)
	fmt.Printf("%d queries against %s\n", len(latencies), *addr)
	if serverErrors > 0 {
		fmt.Printf("server errors tolerated: %d\n", serverErrors)
	}
	fmt.Printf("accuracy vs synthetic labels: %.1f%%\n", float64(correct)/float64(len(latencies))*100)
	fmt.Printf("latency p50 %.0f µs, p90 %.0f µs, p99 %.0f µs\n",
		cdf.Percentile(0.5), cdf.Percentile(0.9), cdf.Percentile(0.99))
}
