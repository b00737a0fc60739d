package exp

import (
	"fmt"
	"io"
	"math/rand/v2"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/dagloader"
	"github.com/lightning-smartnic/lightning/internal/datapath"
	"github.com/lightning-smartnic/lightning/internal/dataset"
	"github.com/lightning-smartnic/lightning/internal/fixed"
	"github.com/lightning-smartnic/lightning/internal/mem"
	"github.com/lightning-smartnic/lightning/internal/nn"
	"github.com/lightning-smartnic/lightning/internal/photonic"
	"github.com/lightning-smartnic/lightning/internal/stats"
)

func init() {
	register("fig8", func(w io.Writer) error { return Fig8(w, 1) })
	register("fig14", func(w io.Writer) error { return Fig14(w, 1000, 1) })
	register("fig16", func(w io.Writer) error { return Fig16(w, 300, 1) })
	// The exact LeNet-300-100 architecture over 784 inputs.
	registerHeavy("fig16full", func(w io.Writer) error { return Fig16Full(w, 100, 1) })
	register("fig17", func(w io.Writer) error { return Fig17(w, 1) })
	register("fig18", func(w io.Writer) error { return Fig18(w, 1000, 1) })
	register("fig23", Fig23)
}

// Fig8 renders sample ADC readouts at two phases, the situation that makes
// preamble detection necessary: "meaningful data can start at any of the 16
// positions" of a parallel readout.
func Fig8(w io.Writer, seed uint64) error {
	header(w, "Fig 8: parallel ADC readouts with unknown phase")
	adc := converter.NewADC(seed)
	data := make([]float64, converter.SamplesPerCycle)
	for i := range data {
		data[i] = 200 + float64(i)
	}
	for _, phase := range []int{0, 7} {
		fmt.Fprintf(w, "burst starting at sample position %d:\n", phase)
		frames := adc.ReadoutFrames(data, phase)
		for f, frame := range frames {
			fmt.Fprintf(w, "  frame %d: ", f)
			for s, v := range frame {
				idx := f*converter.SamplesPerCycle + s
				marker := "."
				if idx >= phase && idx < phase+len(data) {
					marker = "D" // meaningful data
				}
				_ = v
				fmt.Fprint(w, marker)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "(D = photonic compute result, . = idle-channel noise; cf. Fig 8a/8b)")
	return nil
}

// Fig14Result carries the micro-benchmark accuracies of Fig 14c–e.
type Fig14Result struct {
	MultiplicationAcc, AccumulationAcc, MACAcc float64
}

// RunFig14 benchmarks photonic multiplication, accumulation and MAC
// accuracy on the calibrated prototype core with n random operand sets, as
// §6.2 does: accuracy = 100% − std(error), errors in percent of full scale.
func RunFig14(n int, seed uint64) (Fig14Result, error) {
	core, err := photonic.NewPrototypeCore(seed)
	if err != nil {
		return Fig14Result{}, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x14))
	pct := func(err float64) float64 { return err / 255 * 100 }

	var multErrs, accErrs, macErrs []float64
	for i := 0; i < n; i++ {
		// Multiplication: one lane, two random 8-bit operands.
		a := fixed.Code(rng.IntN(256))
		b := fixed.Code(rng.IntN(256))
		got := core.Multiply(a, b)
		multErrs = append(multErrs, pct(got-float64(a)*float64(b)/255))

		// Accumulation: both lanes at full drive on one operand pair
		// (the photodetector sums the two wavelengths). Operands are
		// bounded so the sum stays on the 0–255 plot scale.
		x := fixed.Code(rng.IntN(128))
		y := fixed.Code(rng.IntN(128))
		gotAcc := core.Step([]fixed.Code{x, y}, []fixed.Code{255, 255})
		accErrs = append(accErrs, pct(gotAcc-(float64(x)+float64(y))))

		// MAC: two multiplies accumulated across the two wavelengths.
		a2 := fixed.Code(rng.IntN(128))
		b2 := fixed.Code(rng.IntN(256))
		gotMAC := core.Step([]fixed.Code{a >> 1, a2}, []fixed.Code{b, b2})
		wantMAC := (float64(a>>1)*float64(b) + float64(a2)*float64(b2)) / 255
		macErrs = append(macErrs, pct(gotMAC-wantMAC))
	}
	return Fig14Result{
		MultiplicationAcc: 100 - stats.StdDev(multErrs),
		AccumulationAcc:   100 - stats.StdDev(accErrs),
		MACAcc:            100 - stats.StdDev(macErrs),
	}, nil
}

// Fig14 prints the micro-benchmark report, including the Fig 14a–b encoding
// examples.
func Fig14(w io.Writer, n int, seed uint64) error {
	header(w, "Fig 14: photonic computing micro-benchmarks")
	// Fig 14a/b: photonic representation of codes 185 and 51.
	core, err := photonic.NewPrototypeCore(seed)
	if err != nil {
		return err
	}
	for _, code := range []fixed.Code{185, 51} {
		reading := core.Multiply(code, 255)
		fmt.Fprintf(w, "representation of %3d: analog readout %.1f (carrier max = 255)\n", code, reading)
	}
	res, err := RunFig14(n, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "photonic multiplication accuracy: %.3f%% (paper: 99.451%%)\n", res.MultiplicationAcc)
	fmt.Fprintf(w, "photonic accumulation accuracy:   %.3f%% (paper: 99.465%%)\n", res.AccumulationAcc)
	fmt.Fprintf(w, "photonic MAC accuracy:            %.3f%% (paper: 99.25%%)\n", res.MACAcc)
	return nil
}

// Fig16Result is the prototype inference-accuracy experiment outcome.
type Fig16Result struct {
	PhotonicTop1, Digital8Top1 float64
	Confusion                  [10][10]int
}

// RunFig16 trains the digit classifier (a reduced LeNet-300-100 stand-in on
// the 16×16 synthetic glyph task), serves n test images through the full
// photonic datapath, and builds the confusion matrix of Fig 16.
func RunFig16(n int, seed uint64) (Fig16Result, error) {
	return runFig16(n, seed, dataset.DigitSide, []int{64, 32}, 25)
}

// RunFig16Full runs the exact paper architecture — LeNet-300-100 over
// 784-pixel inputs (≈266 K parameters) — on 28×28 glyphs. It is compute-
// heavy (pure-Go training plus ~266 K analog MACs per served image) and is
// exposed through `lightning-bench -exp fig16full` rather than the default
// suite.
func RunFig16Full(n int, seed uint64) (Fig16Result, error) {
	return runFig16(n, seed, dataset.MNISTSide, []int{300, 100}, 15)
}

func runFig16(n int, seed uint64, side int, hidden []int, epochs int) (Fig16Result, error) {
	var res Fig16Result
	set := dataset.DigitsSized(3000+n, side, seed)
	train, test := set.Split(1 - float64(n)/float64(len(set.Examples)))
	sizes := append([]int{side * side}, hidden...)
	sizes = append(sizes, 10)
	net := nn.New(seed+1, sizes...)
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = epochs
	cfg.Seed = seed + 2
	net.Train(train, cfg)
	q := nn.Quantize(net, train)

	core, err := photonic.NewCore(2, photonic.CalibratedNoise(seed+3))
	if err != nil {
		return res, err
	}
	loader := dagloader.NewLoader(datapath.NewEngine(core, seed+4), mem.New(mem.DDR4Spec(), seed+5))
	if err := loader.RegisterModel(1, "digits", q); err != nil {
		return res, err
	}
	correctP, correctD := 0, 0
	for i := 0; i < n && i < len(test.Examples); i++ {
		ex := test.Examples[i]
		served, err := loader.Serve(1, ex.X)
		if err != nil {
			return res, err
		}
		res.Confusion[ex.Label][served.Class]++
		if served.Class == ex.Label {
			correctP++
		}
		if d, _ := q.Infer(ex.X); d == ex.Label {
			correctD++
		}
	}
	res.PhotonicTop1 = float64(correctP) / float64(n)
	res.Digital8Top1 = float64(correctD) / float64(n)
	return res, nil
}

// Fig16 prints the experiment: accuracy plus the confusion matrix.
func Fig16(w io.Writer, n int, seed uint64) error {
	header(w, "Fig 16: digit-classification inference accuracy on the prototype datapath")
	res, err := RunFig16(n, seed)
	if err != nil {
		return err
	}
	return printFig16(w, res)
}

// Fig16Full prints the exact-architecture experiment.
func Fig16Full(w io.Writer, n int, seed uint64) error {
	header(w, "Fig 16 (full): LeNet-300-100 over 784 inputs on the prototype datapath")
	res, err := RunFig16Full(n, seed)
	if err != nil {
		return err
	}
	return printFig16(w, res)
}

func printFig16(w io.Writer, res Fig16Result) error {
	fmt.Fprintf(w, "photonic top-1 accuracy: %.1f%% (paper: 96.2%% on MNIST)\n", res.PhotonicTop1*100)
	fmt.Fprintf(w, "8-bit digital reference: %.1f%% (paper: 97.45%%)\n", res.Digital8Top1*100)
	fmt.Fprintln(w, "confusion matrix (rows: ground truth, cols: Lightning result):")
	fmt.Fprint(w, "     ")
	for c := 0; c < 10; c++ {
		fmt.Fprintf(w, "%4d", c)
	}
	fmt.Fprintln(w)
	for r := 0; r < 10; r++ {
		fmt.Fprintf(w, "  %d: ", r)
		for c := 0; c < 10; c++ {
			fmt.Fprintf(w, "%4d", res.Confusion[r][c])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig17 demonstrates synchronous data streaming and preamble detection on a
// served query: two parallel DAC streams (inference data and weights) with
// the testbed preamble, an arbitrary-phase ADC readout, and count-action
// detection of the meaningful data's position.
func Fig17(w io.Writer, seed uint64) error {
	header(w, "Fig 17: synchronous parallel data streams and preamble detection")
	pre := datapath.PrototypePreamble()
	img := dataset.Digits(1, seed).Examples[0].X
	weights := make([]fixed.Code, len(img))
	rng := rand.New(rand.NewPCG(seed, 0x17))
	for i := range weights {
		weights[i] = fixed.Code(rng.IntN(256))
	}
	// The datapath prepends the preamble to each vector before the DACs.
	streamA := pre.Prepend(img)
	streamB := pre.Prepend(weights)
	fmt.Fprintf(w, "preamble: %s ×%d repetitions\n", pre.Pattern, pre.Repetitions)
	fmt.Fprintf(w, "stream a (inference data): %d samples; stream b (weights): %d samples\n",
		len(streamA), len(streamB))

	// Synchronous streaming through two DAC lanes into the photonic core.
	var steps int
	st := datapath.NewStreamer(2, 4096, func(lanes [][]fixed.Code) { steps += len(lanes[0]) })
	st.Feed(0, streamA)
	st.Feed(1, streamB)
	cycles := st.Run(10000)
	fmt.Fprintf(w, "streamed %d synchronized samples per lane in %d digital cycles (%d stalls)\n",
		steps, cycles, st.StallCycles)

	// ADC readout at a random phase, then count-action detection.
	adc := converter.NewADC(seed)
	phase := adc.RandomPhase()
	analog := make([]float64, len(streamA))
	for i, c := range streamA {
		analog[i] = float64(c)
	}
	frames := adc.ReadoutFrames(analog, phase)
	det := datapath.NewDetector(pre)
	got, frameIdx, ok := det.Detect(frames)
	fmt.Fprintf(w, "ADC delivered %d frames; true phase %d; detected phase %d at frame %d (ok=%v)\n",
		len(frames), phase, got, frameIdx, ok)
	payload := det.ExtractPayload(frames, got, len(img))
	match := 0
	for i := range img {
		if payload[i] == img[i] {
			match++
		}
	}
	fmt.Fprintf(w, "payload recovered: %d/%d samples exact\n", match, len(img))
	return nil
}

// Fig18Result is the fitted noise model.
type Fig18Result struct {
	Fit       stats.Gaussian
	Histogram *stats.Histogram
}

// RunFig18 measures photonic multiplication noise on the prototype core and
// fits a Gaussian, reproducing Fig 18's calibration.
func RunFig18(n int, seed uint64) (Fig18Result, error) {
	core, err := photonic.NewPrototypeCore(seed)
	if err != nil {
		return Fig18Result{}, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x18))
	errs := make([]float64, n)
	for i := range errs {
		a := fixed.Code(rng.IntN(256))
		b := fixed.Code(rng.IntN(256))
		errs[i] = core.Multiply(a, b) - float64(a)*float64(b)/255
	}
	fit := stats.FitGaussian(errs)
	return Fig18Result{
		Fit:       fit,
		Histogram: stats.NewHistogram(errs, fit.Mean-4*fit.Sigma, fit.Mean+4*fit.Sigma, 24),
	}, nil
}

// Fig18 prints the noise calibration with an ASCII histogram against the
// fitted Gaussian.
func Fig18(w io.Writer, n int, seed uint64) error {
	header(w, "Fig 18: photonic multiplication noise")
	res, err := RunFig18(n, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fitted Gaussian: mean %.2f, std %.2f (paper: mean 2.32, std 1.65)\n",
		res.Fit.Mean, res.Fit.Sigma)
	h := res.Histogram
	peak := 0.0
	for i := range h.Counts {
		if d := h.Density(i); d > peak {
			peak = d
		}
	}
	for i := range h.Counts {
		fmt.Fprintf(w, "%7.2f | %-40s %.3f\n",
			h.BinCenter(i), stats.ASCIIBar(h.Density(i)/peak, 40), h.Density(i))
	}
	return nil
}

// Fig23 sweeps a modulator's bias voltage from −9 V to 9 V and reports the
// max-extinction operating point, as Appendix B's calibration does.
func Fig23(w io.Writer) error {
	header(w, "Fig 23: modulator bias sweep for max extinction ratio")
	m := photonic.NewMZModulator(0.7)
	bc := photonic.NewBiasController()
	pts := bc.Sweep(m, 1)
	// Print a coarse sweep.
	for i := 0; i < len(pts); i += len(pts) / 24 {
		p := pts[i]
		fmt.Fprintf(w, "%+6.2f V | %s %.4f\n", p.Bias, stats.ASCIIBar(p.Reading/0.011, 36), p.Reading)
	}
	lock := bc.Lock(m, 1)
	fmt.Fprintf(w, "locked bias: %+.2f V (transmission at 0 V drive: %.5f)\n", lock, m.Transmission(0))
	lo, hi := m.EncodingRange()
	fmt.Fprintf(w, "encoding zone: %.2f V to %.2f V\n", lo, hi)
	return nil
}
