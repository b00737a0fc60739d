package converter

import (
	"math"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/axi"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

func TestSampleRate(t *testing.T) {
	// 253.44 MHz × 16 = 4.055 GS/s (§6.1).
	if math.Abs(SampleRateHz-4.05504e9) > 1 {
		t.Errorf("SampleRateHz = %v, want 4.05504e9", SampleRateHz)
	}
}

func TestDACValidFlag(t *testing.T) {
	d := NewDAC(32)
	if d.Valid() || d.ValidCount() != 0 {
		t.Error("empty DAC reports valid")
	}
	d.In.Push(axi.Beat[fixed.Code]{Data: 7})
	if !d.Valid() || d.ValidCount() != 1 {
		t.Error("loaded DAC not valid")
	}
}

func TestDACEmitFullCycle(t *testing.T) {
	d := NewDAC(64)
	for i := 0; i < 40; i++ {
		d.In.Push(axi.Beat[fixed.Code]{Data: fixed.Code(i)})
	}
	out := d.EmitN(SamplesPerCycle)
	if len(out) != SamplesPerCycle {
		t.Fatalf("EmitN = %d samples, want %d", len(out), SamplesPerCycle)
	}
	for i, c := range out {
		if c != fixed.Code(i) {
			t.Fatalf("sample %d = %d", i, c)
		}
	}
	if d.Emitted != SamplesPerCycle {
		t.Errorf("Emitted = %d", d.Emitted)
	}
}

func TestDACEmitStarved(t *testing.T) {
	d := NewDAC(64)
	for i := 0; i < 5; i++ {
		d.In.Push(axi.Beat[fixed.Code]{Data: 1})
	}
	if got := len(d.EmitN(SamplesPerCycle)); got != 5 {
		t.Errorf("starved EmitN = %d samples, want 5", got)
	}
	if got := len(d.EmitN(SamplesPerCycle)); got != 0 {
		t.Errorf("empty EmitN = %d samples, want 0", got)
	}
}

func TestADCQuantizeSaturation(t *testing.T) {
	cases := []struct {
		in   float64
		want fixed.Code
	}{
		{-10, 0}, {0, 0}, {0.4, 0}, {0.6, 1}, {254.4, 254}, {255, 255}, {300, 255},
	}
	for _, c := range cases {
		if got := Quantize(c.in); got != c.want {
			t.Errorf("Quantize(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// roundQuantize is the quantizer as it was written over math.Round, kept as
// the reference the call-free rounding is held to.
func roundQuantize(v float64) fixed.Code {
	if v <= 0 {
		return 0
	}
	if v >= fixed.MaxCode {
		return fixed.MaxCode
	}
	return fixed.Code(math.Round(v))
}

// FuzzQuantizeMatchesRound holds Quantize to math.Round's half-away-from-zero
// on every reading: the seeds are the values where a hand-written rounding
// goes wrong — the largest double below one half, every exact tie, the rails
// and their neighbours, both zeros, negatives, the values whose v+0.5 crosses
// a power of two — and each fuzzed value is also tried one ulp either side.
func FuzzQuantizeMatchesRound(f *testing.F) {
	f.Add(0.49999999999999994)
	for k := 0; k < fixed.MaxCode; k++ {
		f.Add(float64(k) + 0.5)
	}
	for p := 0.25; p <= 256; p *= 2 {
		f.Add(p - 0.5)
		f.Add(math.Nextafter(p, 0))
	}
	for _, v := range []float64{
		254.5, 255, 254.99999999999997, 255.00000000000003, 254.49999999999997, 300, 1e300, math.Inf(1),
		0, math.Copysign(0, -1), -0.5, -1, -254.5, -1e300, math.Inf(-1),
		math.SmallestNonzeroFloat64, 1, 1.5000000000000002, 1.4999999999999998, 127.50000000000001,
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) {
			t.Skip("a NaN reading converts to an implementation-defined code, before and after")
		}
		for _, x := range []float64{v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1))} {
			if got, want := Quantize(x), roundQuantize(x); got != want {
				t.Fatalf("Quantize(%v) = %d, math.Round says %d", x, got, want)
			}
		}
	})
}

func TestQuantizeBurst(t *testing.T) {
	got := make([]fixed.Code, 3)
	QuantizeInto(got, []float64{1, 2.6, 300})
	want := []fixed.Code{1, 3, 255}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("burst[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestReadoutFramesPhaseZero(t *testing.T) {
	a := NewADC(1)
	readings := make([]float64, SamplesPerCycle)
	for i := range readings {
		readings[i] = float64(100 + i)
	}
	frames := a.ReadoutFrames(readings, 0)
	if len(frames) != 1 {
		t.Fatalf("frames = %d, want 1", len(frames))
	}
	for i := 0; i < SamplesPerCycle; i++ {
		if frames[0][i] != fixed.Code(100+i) {
			t.Fatalf("sample %d = %d", i, frames[0][i])
		}
	}
}

func TestReadoutFramesShifted(t *testing.T) {
	// Fig 8b: meaningful data starting at position 7 leaves samples 0–6 as
	// noise and spills into a second frame.
	a := NewADC(2)
	readings := make([]float64, SamplesPerCycle)
	for i := range readings {
		readings[i] = 200
	}
	phase := 7
	frames := a.ReadoutFrames(readings, phase)
	if len(frames) != 2 {
		t.Fatalf("frames = %d, want 2", len(frames))
	}
	for i := 0; i < phase; i++ {
		if frames[0][i] > a.NoiseFloor {
			t.Errorf("pre-phase sample %d = %d exceeds noise floor", i, frames[0][i])
		}
	}
	for i := phase; i < SamplesPerCycle; i++ {
		if frames[0][i] != 200 {
			t.Errorf("data sample %d = %d, want 200", i, frames[0][i])
		}
	}
	// The tail of frame 2 after the burst is noise again.
	for i := phase; i < SamplesPerCycle; i++ {
		if frames[1][i] > a.NoiseFloor {
			t.Errorf("post-burst sample %d = %d exceeds noise floor", i, frames[1][i])
		}
	}
}

func TestReadoutFramesPanicsOnBadPhase(t *testing.T) {
	a := NewADC(1)
	for _, phase := range []int{-1, SamplesPerCycle} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("phase %d did not panic", phase)
				}
			}()
			a.ReadoutFrames(nil, phase)
		}()
	}
}

func TestRandomPhaseInRange(t *testing.T) {
	a := NewADC(3)
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		p := a.RandomPhase()
		if p < 0 || p >= SamplesPerCycle {
			t.Fatalf("phase %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) < 8 {
		t.Errorf("phases not well distributed: %d distinct", len(seen))
	}
}

func TestNoiseFloorZero(t *testing.T) {
	a := NewADC(1)
	a.NoiseFloor = 0
	frames := a.ReadoutFrames([]float64{100}, 3)
	for i := 0; i < 3; i++ {
		if frames[0][i] != 0 {
			t.Errorf("zero-floor noise sample = %d", frames[0][i])
		}
	}
}

// refReadout is the readout as it ran before the two-span entry: one flat
// burst of analog readings, every position of every frame visited and either
// quantized or drawn as idle noise. It returns the frames and how many
// samples it quantized.
func refReadout(a *ADC, readings []float64, phase int) ([]Frame, int) {
	total := phase + len(readings)
	nFrames := (total + SamplesPerCycle - 1) / SamplesPerCycle
	if nFrames == 0 {
		nFrames = 1
	}
	frames := make([]Frame, nFrames)
	pos := 0
	for f := 0; f < nFrames; f++ {
		for s := 0; s < SamplesPerCycle; s++ {
			idx := f*SamplesPerCycle + s
			switch {
			case idx < phase, idx >= phase+len(readings):
				frames[f][s] = a.noiseSample()
			default:
				frames[f][s] = Quantize(readings[pos])
				pos++
			}
		}
	}
	return frames, pos
}

// TestReadoutBurstMatchesFlatReadout: a code prefix plus analog readings
// reads out exactly as the concatenated analog burst did — equal frames,
// and the rng left at the same draw, so as many positions drawn as noise and
// the rest quantized — for every phase, every code as a prefix sample, and
// empty spans on either side, appended after retained frames; and so does
// ReadoutFrames, the empty-prefix case.
func TestReadoutBurstMatchesFlatReadout(t *testing.T) {
	allCodes := make([]fixed.Code, 0, 2*fixed.Levels)
	for c := 0; c < fixed.Levels; c++ {
		allCodes = append(allCodes, fixed.Code(c), fixed.Code(fixed.MaxCode-c))
	}
	readings := []float64{-3, 0, 0.49, 0.5, 17.5, 254.49, 254.5, 255, 300, 99.9, 12, 200, 1, 2, 3, 4, 5, 6.5, 77}
	for phase := 0; phase < SamplesPerCycle; phase++ {
		for _, prefix := range [][]fixed.Code{nil, allCodes[:1], allCodes[:160], allCodes[:16-phase], allCodes} {
			for _, tail := range [][]float64{nil, readings[:1], readings[:16], readings} {
				seed := uint64(phase*1000 + len(prefix)*10 + len(tail))
				flat := make([]float64, 0, len(prefix)+len(tail))
				for _, c := range prefix {
					flat = append(flat, float64(c))
				}
				flat = append(flat, tail...)

				ref, two, one := NewADC(seed), NewADC(seed), NewADC(seed)
				want, _ := refReadout(ref, flat, phase)
				kept := []Frame{{1, 2, 3}}
				got := two.ReadoutBurstInto(kept, prefix, tail, phase)
				flatGot := one.ReadoutFrames(flat, phase)
				if got[0] != kept[0] {
					t.Fatalf("phase %d: retained frame overwritten", phase)
				}
				for name, fr := range map[string][]Frame{"two-span": got[1:], "flat": flatGot} {
					if len(fr) != len(want) {
						t.Fatalf("phase %d prefix %d readings %d: %s gave %d frames, want %d", phase, len(prefix), len(tail), name, len(fr), len(want))
					}
					for i := range want {
						if fr[i] != want[i] {
							t.Fatalf("phase %d prefix %d readings %d: %s frame %d = %v, want %v", phase, len(prefix), len(tail), name, i, fr[i], want[i])
						}
					}
				}
				if a, b, c := ref.rng.Uint64(), two.rng.Uint64(), one.rng.Uint64(); a != b || a != c {
					t.Fatalf("phase %d prefix %d readings %d: rng streams diverged", phase, len(prefix), len(tail))
				}
			}
		}
	}
}

// TestBurstInPiecesMatchesFramedReadout: the flat burst the engine keeps —
// opened once, digitized a row at a time, closed — is the reference framed
// readout (refReadout, not a wrapper over the same three calls) of the prefix
// and the concatenated readings laid end to end, with the same count of
// digitized samples and rng draws; and reopening it in the same storage
// allocates nothing.
func TestBurstInPiecesMatchesFramedReadout(t *testing.T) {
	prefix := []fixed.Code{255, 255, 0, 0, 255}
	rows := [][]float64{{1, 2.5, 300}, nil, {-4, 99.9, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28}, {254.5}}
	var all []float64
	for _, c := range prefix {
		all = append(all, float64(c))
	}
	for _, r := range rows {
		all = append(all, r...)
	}
	for phase := 0; phase < SamplesPerCycle; phase++ {
		framed, flat := NewADC(uint64(phase)), NewADC(uint64(phase))
		want, quantized := refReadout(framed, all, phase)
		var buf []fixed.Code
		digitized := 0
		burst := func() {
			buf = flat.OpenBurst(buf, prefix, phase)
			for _, r := range rows {
				buf = flat.Digitize(buf, r)
			}
			digitized = len(buf) - phase
			buf = flat.CloseBurst(buf)
		}
		burst()
		if len(buf) != len(want)*SamplesPerCycle {
			t.Fatalf("phase %d: %d samples, want %d frames", phase, len(buf), len(want))
		}
		for f := range want {
			if got := Frame(buf[f*SamplesPerCycle:]); got != want[f] {
				t.Fatalf("phase %d frame %d = %v, want %v", phase, f, got, want[f])
			}
		}
		if digitized != quantized || flat.rng.Uint64() != framed.rng.Uint64() {
			t.Fatalf("phase %d: sample count or rng stream diverged", phase)
		}
		if n := testing.AllocsPerRun(10, burst); n != 0 {
			t.Fatalf("phase %d: reopening the burst in place allocates %v times", phase, n)
		}
	}
}
