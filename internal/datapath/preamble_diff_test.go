package datapath

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/countaction"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// refDetector is the detector as Listing 2 spells it and as it ran before
// the level masks: one shifted pattern per rule, each compared against the
// frame sample by sample with Pattern.MatchFrame.
type refDetector struct {
	module   *countaction.Module
	rules    [converter.SamplesPerCycle]*countaction.Rule
	shifted  [converter.SamplesPerCycle]Pattern
	detected int
}

func newRefDetector(cfg PreambleConfig) *refDetector {
	d := &refDetector{module: countaction.NewModule("preamble_detection_per_ADC"), detected: -1}
	for k := range d.rules {
		k := k
		target := countaction.Value(cfg.Repetitions)
		if k != 0 {
			target = countaction.Value(cfg.Repetitions - 1)
		}
		if cfg.MinMatches > 0 && countaction.Value(cfg.MinMatches) < target {
			target = countaction.Value(cfg.MinMatches)
		}
		d.shifted[k] = cfg.Pattern.Shifted(k)
		d.rules[k] = d.module.Attach(countaction.New(fmt.Sprintf("shift-%02d", k), target, func() { d.detected = k }))
	}
	return d
}

func (d *refDetector) detect(frames []converter.Frame) (phase, frameIdx int, ok bool) {
	for i, f := range frames {
		for k := range d.rules {
			d.rules[k].Observe(d.shifted[k].MatchFrame(f))
			if d.detected >= 0 {
				return d.detected, i, true
			}
		}
	}
	return -1, len(frames), false
}

// FuzzDetectorMaskEquivalence: for any pattern, repetition count,
// MinMatches, phase and noise floor — clean bursts, bursts whose idle noise
// reads as H, L or neither, and bursts with corrupted samples — the shifts
// the level masks look up for a frame are exactly those whose
// Shifted(k).MatchFrame(f) holds, and Detect ends where the reference ends
// with every rule in the same state. Patterns whose rotations coincide
// (0xaaaa has two distinct rotations, 0x3333 four) match several shifts on
// one frame.
func FuzzDetectorMaskEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(0x00ff), uint8(10), uint8(0), uint8(0), uint8(12), uint8(0))
	f.Add(uint64(2), uint16(0x00ff), uint8(10), uint8(0), uint8(6), uint8(12), uint8(3))
	f.Add(uint64(3), uint16(0x5555), uint8(4), uint8(2), uint8(9), uint8(0), uint8(0))
	f.Add(uint64(4), uint16(0xf0f0), uint8(6), uint8(3), uint8(15), uint8(200), uint8(40))
	f.Add(uint64(5), uint16(0xffff), uint8(3), uint8(0), uint8(1), uint8(255), uint8(200))
	f.Add(uint64(6), uint16(0x0000), uint8(2), uint8(1), uint8(13), uint8(64), uint8(1))
	f.Add(uint64(7), uint16(0xaaaa), uint8(5), uint8(0), uint8(3), uint8(12), uint8(0))
	f.Add(uint64(8), uint16(0x3333), uint8(4), uint8(0), uint8(6), uint8(12), uint8(0))
	f.Add(uint64(9), uint16(0x3333), uint8(8), uint8(2), uint8(9), uint8(30), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, bits uint16, reps, minMatches, phase, noiseFloor, corrupt uint8) {
		cfg := PreambleConfig{Repetitions: 2 + int(reps)%14, MinMatches: int(minMatches) % 16}
		for j := range cfg.Pattern {
			cfg.Pattern[j] = bits>>j&1 == 1
		}
		rng := rand.New(rand.NewPCG(seed, 0xde7))
		readings := make([]float64, rng.IntN(40))
		for i := range readings {
			readings[i] = rng.Float64() * 270
		}
		adc := converter.NewADC(seed)
		adc.NoiseFloor = fixed.Code(noiseFloor)
		frames := adc.ReadoutBurstInto(nil, cfg.Prepend(nil), readings, int(phase)%converter.SamplesPerCycle)
		// Some idle frames ahead of the burst, as a stream would carry.
		frames = append(adc.ReadoutFrames(nil, 0), frames...)
		for i := 0; i < int(corrupt); i++ {
			frames[rng.IntN(len(frames))][rng.IntN(converter.SamplesPerCycle)] = fixed.Code(rng.IntN(256))
		}

		d, ref := NewDetector(cfg), newRefDetector(cfg)
		for i := range frames {
			var want uint16
			for k := range ref.shifted {
				if ref.shifted[k].MatchFrame(frames[i]) {
					want |= 1 << k
				}
			}
			if got := d.shifts(levelMasks(&frames[i])); got != want {
				t.Fatalf("frame %d %v: shifts %016b, MatchFrame holds for %016b", i, frames[i], got, want)
			}
		}
		for round := 0; round < 2; round++ { // the second round checks Reset rearms both alike
			gp, gi, gok := d.Detect(frames)
			wp, wi, wok := ref.detect(frames)
			if gp != wp || gi != wi || gok != wok {
				t.Fatalf("round %d: Detect = (%d, %d, %v), reference (%d, %d, %v)", round, gp, gi, gok, wp, wi, wok)
			}
			if got, want := d.Module.Snapshot(), ref.module.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: rule state diverged:\n got %+v\nwant %+v", round, got, want)
			}
			d.Reset()
			ref.detected = -1
			ref.module.Reset()
		}
	})
}

// TestLevelMasksEveryCode holds the word-wide levelMasks to the per-sample
// threshold tests for every code in every one of the sixteen positions.
func TestLevelMasksEveryCode(t *testing.T) {
	for j := 0; j < converter.SamplesPerCycle; j++ {
		for c := 0; c < fixed.Levels; c++ {
			var f converter.Frame
			for i := range f {
				f[i] = fixed.Code((c + 97*i) % fixed.Levels) // every other sample a different code
			}
			f[j] = fixed.Code(c)
			var wantHi, wantLo uint16
			for i, s := range f {
				if s >= HighThreshold {
					wantHi |= 1 << i
				}
				if s <= LowThreshold {
					wantLo |= 1 << i
				}
			}
			if hi, lo := levelMasks(&f); hi != wantHi || lo != wantLo {
				t.Fatalf("code %d at %d in %v: masks %016b %016b, want %016b %016b", c, j, f, hi, lo, wantHi, wantLo)
			}
		}
	}
}

// TestStreamPayloadMatchesPerSample holds the two payload forms — the flat
// view the engine slices and the framed copy the experiments use — against a
// per-sample walk of the frames: every phase, payloads that end mid-frame, on
// a frame boundary and past a truncated burst.
func TestStreamPayloadMatchesPerSample(t *testing.T) {
	perSample := func(d *Detector, frames []converter.Frame, phase, payloadLen int) []fixed.Code {
		var dst []fixed.Code
		start := phase + d.Config.Samples()
		end := min(start+payloadLen, len(frames)*converter.SamplesPerCycle)
		for idx := start; idx < end; idx++ {
			dst = append(dst, frames[idx/converter.SamplesPerCycle][idx%converter.SamplesPerCycle])
		}
		return dst
	}
	d := NewDetector(PreambleConfig{Pattern: PrototypePattern(), Repetitions: 3})
	frames := make([]converter.Frame, 7)
	var flat []fixed.Code
	for i := range frames {
		for j := range frames[i] {
			frames[i][j] = fixed.Code(i*converter.SamplesPerCycle + j)
		}
		flat = append(flat, frames[i][:]...)
	}
	for phase := 0; phase < converter.SamplesPerCycle; phase++ {
		for _, payloadLen := range []int{0, 1, 15, 16, 17, 16 - phase, 32 - phase, 48, 64 - phase, 65, 400} {
			for _, nf := range []int{7, 4, 3, 1} {
				want := perSample(d, frames[:nf], phase, payloadLen)
				got := d.ExtractPayload(frames[:nf], phase, payloadLen)
				view := d.StreamPayload(flat[:nf*converter.SamplesPerCycle], phase, payloadLen)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(slices.Clone(view), want) {
					t.Fatalf("phase %d len %d over %d frames:\n framed %v\n   flat %v\n   want %v", phase, payloadLen, nf, got, view, want)
				}
			}
		}
	}
}

// TestLocateShortPayloadIsAMiss: a detector that locks where the payload
// runs off the end of the burst has not located it. The per-neuron loop
// clamped the segment bounds to the extracted length, so such a burst
// yielded dots computed from missing samples and counted nothing; with a
// layer-wide burst that would corrupt a whole layer silently. Here the
// preamble sits one sample later than the phase the engine knows, in a burst
// that ends on a frame boundary: the lock leaves the payload one sample
// short, which must count as a miss and fall back to the known phase.
func TestLocateShortPayloadIsAMiss(t *testing.T) {
	e := newTestEngine(t, 2, false)
	const known, late, total = 14, 15, 2
	readings := []float64{100} // late + 160 + 1 = 176: eleven whole frames
	stream := e.ADC.CloseBurst(e.ADC.Digitize(e.ADC.OpenBurst(nil, e.pre, late), readings))
	if k, _, ok := e.detector.DetectStream(stream); !ok || k != late {
		t.Fatalf("detector locked at %d (ok %v), want %d", k, ok, late)
	}
	if got := e.detector.StreamPayload(stream, late, total); len(got) != total-1 {
		t.Fatalf("payload at the locked phase has %d samples; the test wants it one short of %d", len(got), total)
	}
	var stats LayerStats
	payload := e.locate(stream, known, total, &stats)
	if stats.PreambleMisses != 1 {
		t.Errorf("a short payload counted %d misses, want 1", stats.PreambleMisses)
	}
	if want := stream[known+len(e.pre):][:total]; !reflect.DeepEqual(payload, want) {
		t.Errorf("payload %v, want the known phase's %v", payload, want)
	}

	// A full-length lock is not a miss, and an undetected preamble is.
	stats = LayerStats{}
	if got := e.locate(stream, known, total-1, &stats); stats.PreambleMisses != 0 || len(got) != total-1 || got[0] != 100 {
		t.Errorf("full-length lock: payload %v, %d misses", got, stats.PreambleMisses)
	}
	if e.locate(stream[:5*converter.SamplesPerCycle], known, total, &stats); stats.PreambleMisses != 1 {
		t.Errorf("undetected preamble counted %d misses, want 1", stats.PreambleMisses)
	}
}

// TestNonDefaultPreambleServesOracle: a deployment that reconfigures P must
// move the generator and the detector together. With only the generator's
// prefix re-baked (the exported field this replaced), every burst missed,
// fell back to the known phase and skipped 160 samples of a 96-sample
// preamble — a silently wrong dot product.
func TestNonDefaultPreambleServesOracle(t *testing.T) {
	weights, bias, xs := batchLayer(6, 37, 3)
	want := newTestEngine(t, 2, false).ExecuteFCBiasBatch(weights, bias, xs, ActReLU, 2)
	pattern, err := ParsePattern("HHLLHHHHLLLLHLHL")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []PreambleConfig{
		{Pattern: PrototypePattern(), Repetitions: 6},
		{Pattern: pattern, Repetitions: 12, MinMatches: 8},
	} {
		e := newTestEngine(t, 2, false)
		e.SetPreamble(cfg)
		got := e.ExecuteFCBiasBatch(weights, bias, xs, ActReLU, 2)
		if got.Stats.PreambleMisses != 0 {
			t.Errorf("P=%d: %d preamble misses", cfg.Repetitions, got.Stats.PreambleMisses)
		}
		for qi := range want.PerQuery {
			if !reflect.DeepEqual(got.PerQuery[qi].Raw, want.PerQuery[qi].Raw) {
				t.Errorf("P=%d query %d: Raw %v, oracle %v", cfg.Repetitions, qi, got.PerQuery[qi].Raw, want.PerQuery[qi].Raw)
			}
		}
		// P repetitions are P readout frames per burst and nothing else: a
		// whole number of cycles, so the rng sees the same draws. Re-pinned
		// when the burst became layer-wide — a layer emits one preamble, not
		// one per output neuron, so the cycles move by ΔP per layer executed
		// (here one) where they moved by ΔP × len(weights).
		const layers = 1
		saved := (PrototypePreamble().Repetitions - cfg.Repetitions) * layers
		if d := int(want.Stats.DatapathCycles) - int(got.Stats.DatapathCycles); d != saved {
			t.Errorf("P=%d: datapath cycles moved by %d, want %d", cfg.Repetitions, d, saved)
		}
	}
}
