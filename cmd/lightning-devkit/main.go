// Command lightning-devkit is the Go analogue of the paper's developer kit
// Python API (Appendix G): it exercises the calibrated photonic core
// directly for micro-benchmarking and debugging — (i) sending data through
// the vector dot-product core to benchmark computing accuracy, (ii)
// characterizing the SNR for calibration, and (iii) sweeping and locking
// modulator bias voltages.
//
//	lightning-devkit -op mac
//	lightning-devkit -op snr
//	lightning-devkit -op bias
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/lightning-smartnic/lightning/internal/devkit"
)

// The MAC benchmark's operands, x = [x1, x2] against w = [w1, w2] as in the
// Appendix G notebook, and the noise seed of every operation.
const (
	x1, w1 = 0.85, 0.26
	x2, w2 = 0.5, 0.93
	seed   = 1
)

func main() {
	op := flag.String("op", "mac", "operation: mac | snr | bias")
	flag.Parse()

	switch *op {
	case "mac":
		kit, err := devkit.New(seed)
		if err != nil {
			log.Fatal(err)
		}
		res, err := kit.MAC(x1, w1, x2, w2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("photonic vector dot product on 2 wavelengths:\n")
		fmt.Printf("  x = [%.2f, %.2f], w = [%.2f, %.2f]\n", x1, x2, w1, w2)
		fmt.Printf("  photonic result: %.3f\n", res.Photonic)
		fmt.Printf("  ground truth:    %.3f\n", res.GroundTruth)
		fmt.Printf("  error:           %+.2f%%\n", res.ErrorPct)
	case "snr":
		kit, err := devkit.New(seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("SNR characterization (100 repeated multiplications per level):")
		fmt.Printf("%8s %12s %10s %10s\n", "level", "mean", "std", "SNR (dB)")
		for _, p := range kit.CharacterizeSNR(devkit.DefaultLevels(), 100) {
			fmt.Printf("%8d %12.2f %10.3f %10.1f\n", p.Level, p.Mean, p.Std, p.SNRdB)
		}
	case "bias":
		r := devkit.ConfigureBias(42)
		fmt.Println("device with unknown intrinsic phase; sweeping -9 V to 9 V...")
		fmt.Printf("locked at %+.2f V: transmission at zero drive %.5f (max extinction)\n",
			r.LockedBias, r.NullTransmission)
		fmt.Printf("encoding zone %.1f–%.1f V; transmission at V_pi: %.5f\n",
			r.EncodingLo, r.EncodingHi, r.PeakTransmission)
	default:
		log.Fatalf("unknown op %q", *op)
	}
}
