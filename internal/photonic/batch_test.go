package photonic

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/lightning-smartnic/lightning/internal/converter"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// batchOperands builds a deterministic operand sequence of the given group
// lengths, returning the flat operand vectors and the group bounds.
func batchOperands(groupLens []int) (a, b []fixed.Code, bounds []int) {
	bounds = []int{0}
	for g, n := range groupLens {
		for i := 0; i < n; i++ {
			a = append(a, fixed.Code((g*37+i*11+1)%256))
			b = append(b, fixed.Code((255-g*19-i*7)%256))
		}
		bounds = append(bounds, len(a))
	}
	return a, b, bounds
}

// TestDotPartialsBatchIntoMatchesSerial pins the batching contract at the
// core: one batch pass over G groups produces, bit for bit, the partials of
// G serial DotPartialsInto calls issued back to back — noise model included,
// because the batch pass performs the same analog steps in the same stream
// order and therefore draws the same noise samples.
func TestDotPartialsBatchIntoMatchesSerial(t *testing.T) {
	groupLens := []int{7, 0, 16, 3, 1, 32}
	a, b, bounds := batchOperands(groupLens)

	serialCore, err := NewCore(2, CalibratedNoise(5))
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for g := 0; g+1 < len(bounds); g++ {
		want = append(want, serialCore.DotPartialsInto(nil, a[bounds[g]:bounds[g+1]], b[bounds[g]:bounds[g+1]])...)
	}

	batchCore, err := NewCore(2, CalibratedNoise(5))
	if err != nil {
		t.Fatal(err)
	}
	got := batchCore.DotPartialsBatchInto(nil, a, b, bounds)

	if len(got) != len(want) {
		t.Fatalf("batch pass produced %d partials, serial %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("partial %d: batch %v != serial %v", i, got[i], want[i])
		}
	}
	if serialCore.Steps != batchCore.Steps {
		t.Fatalf("step counts diverged: serial %d, batch %d", serialCore.Steps, batchCore.Steps)
	}
}

// TestDotPartialsBatchIntoStaleLUTFallback moves a modulator off its baked
// operating point and checks the whole batch sees the fault, exactly as
// serial calls would: the call re-bakes the moved lane's tables before its
// first step, so the batch reads what the serial calls read, and neither
// reads what a healthy core reads.
func TestDotPartialsBatchIntoStaleLUTFallback(t *testing.T) {
	a, b, bounds := batchOperands([]int{8, 8})

	mk := func(bias float64) *Core {
		c, err := NewCore(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Lanes()[0].Mod1.Bias += bias // silent corruption: the tables must not mask it
		return c
	}
	serial := mk(0.7)
	var want []float64
	for g := 0; g+1 < len(bounds); g++ {
		want = append(want, serial.DotPartialsInto(nil, a[bounds[g]:bounds[g+1]], b[bounds[g]:bounds[g+1]])...)
	}
	got := mk(0.7).DotPartialsBatchInto(nil, a, b, bounds)
	healthy := mk(0).DotPartialsBatchInto(nil, a, b, bounds)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("stale partial %d: batch %v != serial %v", i, got[i], want[i])
		}
		if got[i] == healthy[i] {
			t.Fatalf("partial %d reads %v with the bias moved and without: the fault is masked", i, got[i])
		}
	}
}

// TestDotPartialsBatchIntoZeroAllocs guards the batched photonic hot path:
// with caller-owned storage of sufficient capacity, a batch pass must not
// allocate.
func TestDotPartialsBatchIntoZeroAllocs(t *testing.T) {
	a, b, bounds := batchOperands([]int{64, 64, 64, 64})
	core, err := NewCore(2, CalibratedNoise(9))
	if err != nil {
		t.Fatal(err)
	}
	dst := core.DotPartialsBatchInto(nil, a, b, bounds) // warm-up sizes dst
	if n := testing.AllocsPerRun(100, func() {
		dst = core.DotPartialsBatchInto(dst, a, b, bounds)
	}); n != 0 {
		t.Fatalf("DotPartialsBatchInto allocates %v times per call with warm storage, want 0", n)
	}
}

// TestPartialsAtMatchesCursorPass holds the position-addressed entry to a
// pass from the cursor: a group cut at lane-aligned points and issued piece
// by piece, last piece first, each at its own noise position, reads bit for
// bit what DotPartialsInto reads after SeekNoiseAt — and moves neither the
// cursor nor the step count. The readout issued at the same cuts, noise and
// rounding in one pass, writes the codes QuantizeInto makes of those
// readings.
func TestPartialsAtMatchesCursorPass(t *testing.T) {
	const key = 3<<32 | 7
	rng := rand.New(rand.NewPCG(41, 2))
	for lanes := 1; lanes <= 3; lanes++ {
		for _, n := range []int{0, 1, lanes, 5*lanes + 1, 997} {
			a, b, _ := batchOperands([]int{n})
			ref, err := NewCore(lanes, PrototypeNoise(13))
			if err != nil {
				t.Fatal(err)
			}
			ref.SeekNoiseAt(key, 0)
			want := ref.DotPartialsInto(nil, a, b)

			c, err := NewCore(lanes, PrototypeNoise(13))
			if err != nil {
				t.Fatal(err)
			}
			got, readings := make([]float64, len(want)), make([]float64, len(want))
			codes, wantCodes := make([]fixed.Code, len(want)), make([]fixed.Code, len(want))
			converter.QuantizeInto(wantCodes, want)
			cuts := []int{len(want)}
			for s := len(want); s > 0; {
				s = rng.IntN(s)
				cuts = append(cuts, s)
			}
			for i := 1; i < len(cuts); i++ {
				lo, hi := cuts[i], cuts[i-1]
				pa, pb := a[lo*lanes:min(hi*lanes, n)], b[lo*lanes:min(hi*lanes, n)]
				c.PartialsAt(got[lo:hi], pa, pb, key, uint64(lo))
				c.ReadoutAt(codes[lo:hi], c.ReadingsInto(readings[lo:hi], pa, pb), key, uint64(lo))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d lanes, %d operands: partial %d is %v by position, %v from the cursor", lanes, n, i, got[i], want[i])
				}
				if codes[i] != wantCodes[i] {
					t.Fatalf("%d lanes, %d operands: step %d reads out %d, QuantizeInto of its partial %d", lanes, n, i, codes[i], wantCodes[i])
				}
			}
			if c.Steps != 0 {
				t.Fatalf("PartialsAt counted %d steps", c.Steps)
			}
			fresh, err := NewCore(lanes, PrototypeNoise(13))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := c.noise.Sample(), fresh.noise.Sample(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("PartialsAt moved the cursor: next draw %v, a fresh core's %v", g, w)
			}
		}
	}
}

// stepPartials is the reference the kernel is held to: every group a step at
// a time through Step, whose lanes TestTransmitCodesLUTEquivalence holds to
// the live transfer chain.
func stepPartials(c *Core, a, b []fixed.Code, bounds []int) []float64 {
	n := c.NumLanes()
	var out []float64
	for g := 0; g+1 < len(bounds); g++ {
		for lo, hi := bounds[g], bounds[g+1]; lo < hi; lo += n {
			end := min(lo+n, hi)
			out = append(out, c.Step(a[lo:end], b[lo:end]))
		}
	}
	return out
}

// TestStreamKernelMatchesStep holds the streaming kernel to Step bit for bit:
// the partials, the step count, and — with a noise model — the draw that
// follows, so the kernel consumed exactly Step's draws in Step's order, from
// wherever SeekNoiseAt put the cursor. Group
// lengths cover the empty group, a lone operand, every tail length and long
// runs; cores cover one to three lanes, a dead lane, a sagged carrier, every
// full scale, the prototype's lanes, and a lane killed between two passes on
// one core — two-lane cores take stream2 until the kill and stream after it.
func TestStreamKernelMatchesStep(t *testing.T) {
	type variant struct {
		name    string
		lanes   int
		dead    int // lane to kill, -1 for none
		carrier float64
		scale   int
		proto   bool // NewPrototypeCore's lanes
		kill    int  // lane to kill between the two passes, -1 for none
	}
	variants := []variant{
		{"1lane", 1, -1, 1, 0, false, -1},
		{"2lane", 2, -1, 1, 2, false, -1},
		{"2lane-scale0", 2, -1, 1, 0, false, -1},
		{"2lane-scale1", 2, -1, 1, 1, false, -1},
		{"2lane-proto", 2, -1, 1, 2, true, -1},
		{"2lane-kill1", 2, -1, 1, 2, false, 1},
		{"2lane-proto-kill0", 2, -1, 1, 1, true, 0},
		{"3lane", 3, -1, 1, 3, false, -1},
		{"3lane-dead1", 3, 1, 1, 3, false, -1},
		{"2lane-dead0", 2, 0, 1, 1, false, -1},
		{"2lane-sag", 2, -1, 0.8, 2, false, -1},
		{"3lane-sag", 3, -1, 0.37, 1, false, -1},
	}
	rng := rand.New(rand.NewPCG(23, 1))
	for _, v := range variants {
		for _, noisy := range []bool{false, true} {
			mk := func() *Core {
				var nm *NoiseModel
				if noisy {
					nm = PrototypeNoise(77)
				}
				c, err := NewCore(v.lanes, nm)
				if v.proto {
					c, err = NewPrototypeCore(77) // its noise is replaced below
				}
				if err != nil {
					t.Fatal(err)
				}
				c.noise = nm
				if v.dead >= 0 {
					c.Lanes()[v.dead].Kill()
				}
				c.SetCarrierPower(v.carrier)
				c.FullScaleLanes = v.scale
				return c
			}
			// Fixed shapes first (empty, one operand, each tail length,
			// an exact multiple), then random ones.
			lens := []int{0, 1, 0}
			for k := 1; k < v.lanes; k++ {
				lens = append(lens, 5*v.lanes+k, k)
			}
			lens = append(lens, 4*v.lanes, 0)
			for i := 0; i < 12; i++ {
				lens = append(lens, rng.IntN(70))
			}
			lens = append(lens, 1000+rng.IntN(50))
			var a, b []fixed.Code
			bounds := []int{0}
			for _, n := range lens {
				for i := 0; i < n; i++ {
					a = append(a, fixed.Code(rng.IntN(256)))
					b = append(b, fixed.Code(rng.IntN(256)))
				}
				bounds = append(bounds, len(a))
			}

			// Both sides seek: the kernel's draws start at the cursor the
			// seek left, as Step's do.
			ref, kern := mk(), mk()
			ref.SeekNoiseAt(5<<32|1, 0)
			kern.SeekNoiseAt(5<<32|1, 0)
			want := stepPartials(ref, a, b, bounds)
			got := kern.DotPartialsBatchInto(nil, a, b, bounds)
			name := fmt.Sprintf("%s noise=%v", v.name, noisy)
			if len(got) != len(want) {
				t.Fatalf("%s: %d partials, reference %d", name, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: partial %d: kernel %v, Step %v", name, i, got[i], want[i])
				}
			}
			if kern.Steps != ref.Steps {
				t.Fatalf("%s: kernel counted %d steps, Step %d", name, kern.Steps, ref.Steps)
			}
			if g, w := kern.noise.Sample(), ref.noise.Sample(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: next draw %v after the kernel, %v after Step", name, g, w)
			}

			// Dot and the one-group entry are the same kernel: the sum of
			// one group's partials in order, with the same draws behind it.
			// A lane killed now must take the next pass off stream2.
			if v.kill >= 0 {
				ref.Lanes()[v.kill].Kill()
				kern.Lanes()[v.kill].Kill()
			}
			lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
			ref.SeekNoiseAt(6<<32, 0)
			kern.SeekNoiseAt(6<<32, 0)
			var sum float64
			for _, p := range stepPartials(ref, a[lo:hi], b[lo:hi], []int{0, hi - lo}) {
				sum += p
			}
			if d := kern.Dot(a[lo:hi], b[lo:hi]); math.Float64bits(d) != math.Float64bits(sum) {
				t.Fatalf("%s: Dot %v, summed Step partials %v", name, d, sum)
			}
			if kern.Steps != ref.Steps {
				t.Fatalf("%s: after Dot the kernel counted %d steps, Step %d", name, kern.Steps, ref.Steps)
			}
			if g, w := kern.noise.Sample(), ref.noise.Sample(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: next draw %v after Dot, %v after Step", name, g, w)
			}
		}
	}
}

// FuzzTwoLaneKernel holds the pass a core of two live lanes dispatches to
// (stream2) to Step bit for bit over arbitrary operand bytes: the first half
// of ops is a and the second b, so groups of either parity arrive, under a
// fuzzed carrier and full scale, on NewCore's lanes and the prototype's, with
// noise off and on. Every entry is held to it: the pass from the cursor,
// PartialsAt at the same position of the same stream, and the readout there,
// whose codes are Quantize of Step's readings.
func FuzzTwoLaneKernel(f *testing.F) {
	f.Add([]byte{}, uint16(0x8000), uint8(2), false, false)
	f.Add([]byte{255, 255}, uint16(0x8000), uint8(0), true, false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint16(0x6666), uint8(1), false, true)
	f.Add([]byte{0, 255, 128, 7, 9, 200, 13, 255, 0, 64, 32}, uint16(0x2f5c), uint8(3), true, true)
	long := make([]byte, 301)
	for i := range long {
		long[i] = byte(i*37 + 11)
	}
	f.Add(long, uint16(0x8000), uint8(2), false, false)
	const key = 9<<32 | 3
	cores := map[[3]bool]*Core{} // by prototype lanes, noise, kernel side
	core := func(t *testing.T, proto, noisy, kern bool) *Core {
		id := [3]bool{proto, noisy, kern}
		if c := cores[id]; c != nil {
			return c
		}
		var nm *NoiseModel
		if noisy {
			nm = PrototypeNoise(77)
		}
		c, err := NewCore(2, nm)
		if proto {
			c, err = NewPrototypeCore(77) // its noise is replaced below
		}
		if err != nil {
			t.Fatal(err)
		}
		c.noise = nm
		cores[id] = c
		return c
	}
	f.Fuzz(func(t *testing.T, ops []byte, carrier uint16, scale uint8, noisy, proto bool) {
		n := len(ops) / 2
		a, b := make([]fixed.Code, n), make([]fixed.Code, n)
		for i := range a {
			a[i], b[i] = fixed.Code(ops[i]), fixed.Code(ops[n+i])
		}
		ref, kern := core(t, proto, noisy, false), core(t, proto, noisy, true)
		for _, c := range []*Core{ref, kern} {
			c.SetCarrierPower(float64(carrier) / 0x8000)
			c.FullScaleLanes = int(scale % 4)
			c.SeekNoiseAt(key, 0)
		}
		want := stepPartials(ref, a, b, []int{0, n})
		got := kern.DotPartialsInto(nil, a, b)
		at := make([]float64, len(want))
		kern.PartialsAt(at, a, b, key, 0)
		codes := make([]fixed.Code, len(want))
		kern.ReadoutAt(codes, kern.ReadingsInto(make([]float64, len(want)), a, b), key, 0)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(at[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d operands, partial %d: pass %v, PartialsAt %v, Step %v", n, i, got[i], at[i], want[i])
			}
			if codes[i] != converter.Quantize(want[i]) {
				t.Fatalf("%d operands, step %d: readout %d, Quantize of Step's %v", n, i, codes[i], want[i])
			}
		}
		if kern.Steps != ref.Steps {
			t.Fatalf("kernel counted %d steps, Step %d", kern.Steps, ref.Steps)
		}
	})
}

// TestMaskedKernelMatchesGathered holds the masked kernels to the gathered
// pass bit for bit: rows' readings against a batch, read where the operands
// lie (ReadingsMaskedInto), must be those ReadingsGroupsInto reads from the
// same groups gathered into operand buffers, and as many. Rows are 1 to 1023
// wide, over one word and several, one and three a call, with groups empty,
// full, dense in runs across a word boundary and a coin flip per element; cores have one to
// three lanes, a dead lane, a sagged carrier, each full scale and the
// prototype's lanes, and a two-lane core is killed between two passes, so it
// takes masked2 and then masked.
func TestMaskedKernelMatchesGathered(t *testing.T) {
	type variant struct {
		name    string
		lanes   int
		dead    int // lane to kill, -1 for none
		carrier float64
		scale   int
		proto   bool
	}
	variants := []variant{
		{"1lane", 1, -1, 1, 1, false},
		{"2lane", 2, -1, 1, 2, false},
		{"2lane-proto", 2, -1, 1, 2, true},
		{"2lane-sag-scale0", 2, -1, 0.8, 0, false},
		{"2lane-dead0", 2, 0, 1, 2, false},
		{"3lane", 3, -1, 1, 3, false},
		{"3lane-dead1", 3, 1, 0.37, 1, false},
	}
	rng := rand.New(rand.NewPCG(29, 3))
	// draw fills a group's mask over n elements: empty, full, a run from
	// lo to hi, or each element with probability p/8.
	draw := func(m []uint64, n int) {
		clear(m)
		kind, lo, hi := rng.IntN(5), rng.IntN(n+1), rng.IntN(n+1)
		for i := 0; i < n; i++ {
			if kind == 1 || kind == 2 && i >= min(lo, hi) && i < max(lo, hi) || kind >= 3 && rng.IntN(8) < 2*kind-3 {
				m[i/64] |= 1 << (i % 64)
			}
		}
	}
	// check runs rows of every width on c, one and three rows a call.
	check := func(c *Core, name string) {
		lanes := c.NumLanes()
		for _, n := range []int{1, 2, 7, 63, 64, 65, 127, 128, 200, 1023} {
			for _, shape := range [][2]int{{1, 1}, {3, 2}} { // rows, queries
				rows, q, words := shape[0], shape[1], (n+63)/64
				a := make([]fixed.Code, rows*n)
				for i := range a {
					a[i] = fixed.Code(rng.IntN(256))
				}
				xs := make([][]fixed.Code, q)
				for qi := range xs {
					xs[qi] = make([]fixed.Code, n)
					for i := range xs[qi] {
						xs[qi][i] = fixed.Code(rng.IntN(256))
					}
				}
				masks := make([]uint64, 2*rows*q*words)
				var ga, gb []fixed.Code
				bounds := []int{0}
				for g := 0; g < 2*rows*q; g++ {
					row, x, m := a[g/(2*q)*n:][:n], xs[g%(2*q)/2], masks[g*words:(g+1)*words]
					draw(m, n)
					for i := 0; i < n; i++ {
						if m[i/64]>>(i%64)&1 != 0 {
							ga, gb = append(ga, row[i]), append(gb, x[i])
						}
					}
					bounds = append(bounds, len(ga))
				}
				steps := 0
				for g := 1; g < len(bounds); g++ {
					steps += (bounds[g] - bounds[g-1] + lanes - 1) / lanes
				}
				want, got := make([]float64, steps), make([]float64, steps+1)
				c.ReadingsGroupsInto(want, ga, gb, bounds)
				at := fmt.Sprintf("%s, %d wide, %d rows, q %d", name, n, rows, q)
				if k := c.ReadingsMaskedInto(got, a, n, xs, masks, words); k != steps {
					t.Fatalf("%s: %d readings, want %d", at, k, steps)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: reading %d: masked %v, gathered %v", at, i, got[i], want[i])
					}
				}
			}
		}
	}
	for _, v := range variants {
		c, err := NewCore(v.lanes, nil)
		if v.proto {
			c, err = NewPrototypeCore(3)
		}
		if err != nil {
			t.Fatal(err)
		}
		if v.dead >= 0 {
			c.Lanes()[v.dead].Kill()
		}
		c.SetCarrierPower(v.carrier)
		c.FullScaleLanes = v.scale
		check(c, v.name)
		if v.lanes == 2 && v.dead < 0 { // killed now: the next rows take masked, not masked2
			c.Lanes()[1].Kill()
			check(c, v.name+" killed")
		}
	}
}
