package exp

import (
	"fmt"
	"io"
	"math/rand/v2"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/datapath"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/mem"
	"github.com/lightning-smartnic/lightning/internal/photonic"
)

// The ablations quantify the design choices DESIGN.md §5 lists. Stop-and-go
// triggering is Fig 4 and the utilization sweep is "sweep"; the rest run here.
func init() {
	register("ablation-preamble", func(w io.Writer) error { return AblationPreamble(w, 2000, 7) })
	register("ablation-sign", AblationSign)
	register("ablation-wavelengths", AblationWavelengths)
	register("ablation-backpressure", func(w io.Writer) error { return AblationBackpressure(w, 200) })
}

// PreambleRow is one repetition count of the preamble ablation.
type PreambleRow struct {
	Repetitions     int
	OverheadSamples int
	MissRate        float64
}

// RunAblationPreamble sweeps the preamble repetition count P on a harsh
// channel and counts detection failures over trials bursts per P. Every row
// detects on one clean repetition: a burst at a nonzero phase carries only
// P−1 whole shifted repetitions, so one match is the most P=2 can offer, and
// a fixed threshold keeps P the only variable. A larger P then buys
// corruption slack at the cost of overhead samples.
func RunAblationPreamble(trials int, seed uint64) []PreambleRow {
	var rows []PreambleRow
	for _, reps := range []int{2, 4, 10} {
		cfg := datapath.PreambleConfig{
			Pattern:     datapath.PrototypePattern(),
			Repetitions: reps,
			MinMatches:  1,
		}
		rng := rand.New(rand.NewPCG(seed, seed))
		adc := converter.NewADC(seed)
		// Heavy analog noise occasionally pushes a preamble sample past the
		// H/L thresholds, so a repetition fails to match; more repetitions
		// buy more chances.
		noise := photonic.NewNoiseModel(0, 40, seed)
		burst := cfg.Prepend(make([]fixed.Code, 32))
		analog := make([]float64, len(burst))
		misses := 0
		for i := 0; i < trials; i++ {
			for j, c := range burst {
				analog[j] = float64(c) + noise.Sample()
			}
			frames := adc.ReadoutFrames(analog, rng.IntN(converter.SamplesPerCycle))
			if _, _, ok := datapath.NewDetector(cfg).Detect(frames); !ok {
				misses++
			}
		}
		rows = append(rows, PreambleRow{reps, cfg.Samples(), float64(misses) / float64(trials)})
	}
	return rows
}

// AblationPreamble prints the preamble repetition trade: overhead against
// miss rate.
func AblationPreamble(w io.Writer, trials int, seed uint64) error {
	header(w, "Ablation: preamble repetitions P (1-match threshold, σ=40 analog noise)")
	fmt.Fprintf(w, "%-4s %16s %10s\n", "P", "overhead(samples)", "miss rate")
	for _, r := range RunAblationPreamble(trials, seed) {
		fmt.Fprintf(w, "%-4d %16d %10.4f\n", r.Repetitions, r.OverheadSamples, r.MissRate)
	}
	fmt.Fprintf(w, "(%d bursts per P; more repetitions cost samples and buy detection)\n", trials)
	return nil
}

// RunAblationSign counts the analog steps of one 256-element signed dot
// product on a two-wavelength core, with Lightning's sign/magnitude split
// (one pass) and with the prior dual-rail scheme (one pass per rail,
// Appendix C).
func RunAblationSign() (signSplit, dualRail uint64, err error) {
	core, err := photonic.NewCore(2, nil)
	if err != nil {
		return 0, 0, err
	}
	x := make([]fixed.Code, 256)
	y := make([]fixed.Code, 256)
	for i := range x {
		x[i], y[i] = fixed.Code(i), fixed.Code(255-i)
	}
	core.Dot(x, y)
	signSplit = core.Steps
	core.Dot(x, y) // positive rail
	core.Dot(x, y) // negative rail
	return signSplit, core.Steps - signSplit, nil
}

// AblationSign prints the analog-step cost of the two sign schemes.
func AblationSign(w io.Writer) error {
	header(w, "Ablation: sign handling, analog steps per 256-element signed dot (N=2)")
	split, dual, err := RunAblationSign()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %12s\n", "scheme", "analog steps")
	fmt.Fprintf(w, "%-12s %12d\n", "sign-split", split)
	fmt.Fprintf(w, "%-12s %12d\n", "dual-rail", dual)
	fmt.Fprintf(w, "(sign/magnitude split runs at %.2g× the dual-rail step count)\n", float64(split)/float64(dual))
	return nil
}

// WavelengthRow is one wavelength count of the wavelength ablation.
type WavelengthRow struct {
	Wavelengths int
	Steps       uint64
}

// RunAblationWavelengths counts the analog steps of one 512-element dot
// product as the accumulation wavelength count N grows.
func RunAblationWavelengths() ([]WavelengthRow, error) {
	x := make([]fixed.Code, 512)
	y := make([]fixed.Code, 512)
	for i := range x {
		x[i], y[i] = fixed.Code(i), fixed.Code(i*3)
	}
	var rows []WavelengthRow
	for _, n := range []int{1, 2, 4, 8} {
		core, err := photonic.NewCore(n, nil)
		if err != nil {
			return nil, err
		}
		core.Dot(x, y)
		rows = append(rows, WavelengthRow{n, core.Steps})
	}
	return rows, nil
}

// AblationWavelengths prints analog steps against wavelength count.
func AblationWavelengths(w io.Writer) error {
	header(w, "Ablation: accumulation wavelengths N, analog steps per 512-element dot")
	rows, err := RunAblationWavelengths()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-4s %12s\n", "N", "analog steps")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4d %12d\n", r.Wavelengths, r.Steps)
	}
	fmt.Fprintln(w, "(steps = ⌈512/N⌉: each added wavelength accumulates in the same step)")
	return nil
}

// BackpressureRow is one FIFO depth of the back-pressure ablation.
type BackpressureRow struct {
	Depth     int
	StallFrac float64
}

// RunAblationBackpressure streams a 4 KB weight blob from bursty DRAM
// through one DAC lane, trials times per FIFO depth with DRAM seeds
// 0..trials-1, and reports the mean fraction of streamer cycles starved.
func RunAblationBackpressure(trials int) ([]BackpressureRow, error) {
	var rows []BackpressureRow
	blob := make([]byte, 4096)
	for _, depth := range []int{16, 64, 256} {
		var stallFrac float64
		for i := 0; i < trials; i++ {
			dram := mem.New(mem.DDR4Spec(), uint64(i))
			if err := dram.Store("w", blob); err != nil {
				return nil, err
			}
			rd, err := dram.NewReader("w", converter.SamplesPerCycle)
			if err != nil {
				return nil, err
			}
			st := datapath.NewStreamer(1, depth, nil)
			for rd.Remaining() > 0 || st.Pending() > 0 {
				// DRAM bandwidth exceeds the DAC consumption rate (170 Gbps
				// vs 32 Gbps in the prototype): the reader runs two bursts
				// ahead when the FIFO has room, so a deeper buffer rides out
				// stalls.
				rd.Fill(st.DACs[0].In)
				rd.Fill(st.DACs[0].In)
				st.Tick()
			}
			stallFrac += float64(st.StallCycles) / float64(st.Cycles)
		}
		rows = append(rows, BackpressureRow{depth, stallFrac / float64(trials)})
	}
	return rows, nil
}

// AblationBackpressure prints streamer starvation against FIFO depth.
func AblationBackpressure(w io.Writer, trials int) error {
	header(w, "Ablation: DRAM back-pressure FIFO depth, streamer stall fraction")
	rows, err := RunAblationBackpressure(trials)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %12s\n", "depth", "stall frac")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %12.3g\n", r.Depth, r.StallFrac)
	}
	fmt.Fprintf(w, "(4 KB weight blob over bursty DDR4, mean of %d DRAM seeds)\n", trials)
	return nil
}
