package datapath

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/lightning-smartnic/lightning/internal/countaction"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

// ruleState is the adder's one count-action rule as a snapshot reads it.
func ruleState(a *CrossCycleAdder) countaction.RuleState { return a.Module.Snapshot()[0] }

func TestCrossCycleAccumulateSigns(t *testing.T) {
	// Sample 0 is the one positive: lane 0 adds it and subtracts sample 16,
	// lane 1 subtracts samples 1 and 17, lane 2 its one sample.
	a := NewCrossCycleAdder(18)
	seg := make([]fixed.Code, 18)
	seg[0], seg[1], seg[2], seg[16], seg[17] = 10, 20, 7, 5, 1
	sum, treeCycles, _ := a.Dot(seg, 1)
	if lanes, _ := a.lanes(seg, 1); lanes[0] != 5 || lanes[1] != -21 || lanes[2] != -7 {
		t.Errorf("lanes = %d, %d, %d; want 5, -21, -7", lanes[0], lanes[1], lanes[2])
	}
	if sum != -23 || treeCycles != 4 {
		t.Errorf("sum %d in %d tree cycles, want -23 in 4", sum, treeCycles)
	}
	if r := ruleState(a); r.Count != 0 || r.Fires != 1 {
		t.Errorf("rule %+v, want one fire at 18 partials", r)
	}
}

func TestCrossCycleLaneWraps(t *testing.T) {
	// More than Lanes samples round-robin back onto lane 0.
	a := NewCrossCycleAdder(Lanes + 1)
	seg := bytes.Repeat([]byte{1}, Lanes+1)
	seg[Lanes] = 100
	if lanes, _ := a.lanes(fixed.CodesOf(seg), len(seg)); lanes[0] != 101 || lanes[1] != 1 {
		t.Errorf("lanes 0, 1 = %d, %d; want 101, 1", lanes[0], lanes[1])
	}
}

func TestCrossCyclePanics(t *testing.T) {
	a := NewCrossCycleAdder(1)
	for _, pos := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("sign boundary %d of a 3-sample segment did not panic", pos)
				}
			}()
			a.Dot(make([]fixed.Code, 3), pos)
		}()
	}
}

func TestCrossCycleRetarget(t *testing.T) {
	a := NewCrossCycleAdder(100)
	a.SetPartialsPerDot(2)
	a.Dot([]fixed.Code{1, 1}, 2)
	if r := ruleState(a); r.Count != 0 || r.Fires != 1 {
		t.Errorf("retargeted rule did not fire at 2: %+v", r)
	}
}

func TestCrossCycleReset(t *testing.T) {
	// Two of three partials counted, then a reset: the third partial alone
	// must not complete the dot.
	a := NewCrossCycleAdder(3)
	a.Dot([]fixed.Code{50, 1}, 1)
	a.Reset()
	if r := ruleState(a); r.Count != 0 || r.Fires != 0 {
		t.Errorf("rule after Reset: %+v", r)
	}
	a.Dot([]fixed.Code{50}, 1)
	if r := ruleState(a); r.Count != 1 || r.Fires != 0 {
		t.Errorf("rule after Reset and one partial: %+v", r)
	}
}

// TestCrossCycleOneCountPerDotFiresAsPerSample: the adder evaluates its rule
// once per dot with the dot's sample count. The engine retargets the rule to
// exactly the segment length before each dot, so the count meets the target
// at the dot's end — the sample a rule fed one sample at a time fires on,
// and no other — and both end every dot at count zero with one more fire.
func TestCrossCycleOneCountPerDotFiresAsPerSample(t *testing.T) {
	for n := 1; n <= 5*Lanes+3; n++ {
		a := NewCrossCycleAdder(1)
		perSample := countaction.New("per-sample", 1, nil)
		for dot := 1; dot <= 2; dot++ {
			a.SetPartialsPerDot(n)
			perSample.SetTarget(countaction.Value(n))
			for i := 0; i < n; i++ {
				if fired := perSample.Add(1); fired != (i == n-1) {
					t.Fatalf("segment of %d: per-sample rule fired %v at sample %d", n, fired, i)
				}
			}
			a.Dot(make([]fixed.Code, n), n/2)
			r := ruleState(a)
			if r.Count != perSample.Count() || r.Fires != perSample.Fires || r.Count != 0 || r.Fires != uint64(dot) {
				t.Fatalf("segment of %d, dot %d: adder rule %+v, per-sample count %d fires %d", n, dot, r, perSample.Count(), perSample.Fires)
			}
		}
	}
}

// perSampleDot is the reference Dot is held to: the hardware's adder a
// cycle at a time — each sample scaled by the gain and clamped, then one
// saturating add or subtract on its lane, the rule counting each cycle's
// samples — and the tree over the lanes it leaves.
func perSampleDot(seg []fixed.Code, pos, gain int, rule *countaction.Rule) (lanes [Lanes]fixed.Acc, sum fixed.Acc, treeCycles, saturated int) {
	if len(seg) == 0 {
		return lanes, 0, 0, 0
	}
	gain = max(gain, 1)
	for i := 0; i < len(seg); i += Lanes {
		cycle := seg[i:min(i+Lanes, len(seg))]
		for k, s := range cycle {
			v := fixed.Acc(min(int32(s)*int32(gain), fixed.AccMax))
			if i+k >= pos {
				lanes[k] = fixed.SatSub(lanes[k], v)
			} else {
				lanes[k] = fixed.SatAdd(lanes[k], v)
			}
			if s == fixed.MaxCode {
				saturated++
			}
		}
		rule.Add(countaction.Value(len(cycle)))
	}
	sum, treeCycles = TreeSum(lanes[:])
	return lanes, sum, treeCycles, saturated
}

// checkDot runs one segment through Dot and through the reference, both
// rules retargeted to the segment's length as the engine does, and fails on
// any difference in the lanes, the sum, the tree cycles, the saturated
// count or the rule's count and fires. It returns the lanes.
func checkDot(t testing.TB, seg []fixed.Code, pos, gain int) [Lanes]fixed.Acc {
	t.Helper()
	a := NewCrossCycleAdder(1)
	a.Gain = gain
	ref := countaction.New("per-sample", 1, nil)
	a.SetPartialsPerDot(len(seg))
	ref.SetTarget(countaction.Value(len(seg)))
	lanes, _ := a.lanes(seg, pos)
	sum, treeCycles, saturated := a.Dot(seg, pos)
	wantLanes, wantSum, wantTree, wantSat := perSampleDot(seg, pos, gain, ref)
	r := ruleState(a)
	if lanes != wantLanes || sum != wantSum || treeCycles != wantTree || saturated != wantSat ||
		r.Count != ref.Count() || r.Fires != ref.Fires {
		t.Fatalf("len %d pos %d gain %d: Dot lanes %v sum %d tree %d saturated %d rule %d/%d; per sample %v %d %d %d rule %d/%d",
			len(seg), pos, gain, lanes, sum, treeCycles, saturated, r.Count, r.Fires,
			wantLanes, wantSum, wantTree, wantSat, ref.Count(), ref.Fires)
	}
	return lanes
}

// TestAdderDotMatchesPerSample holds the closed-form Dot to the per-sample
// reference: every segment length to five cycles and three past, at every
// sign boundary, then lengths past the 256-cycle field flush with sign
// boundaries either side of a cycle edge and of the flush; at gains either
// side of 8, above which sixteen MaxCode samples can reach a rail, and
// either side of 128, above which one sample can exceed AccMax; on random
// codes and on runs that pin each rail.
func TestAdderDotMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	// Each fill writes the segment given its sign boundary: the positive
	// group's code, then the negative group's (-1 draws one per sample).
	fills := []struct {
		name     string
		pos, neg int
	}{
		{"random", -1, -1},
		{"max", fixed.MaxCode, fixed.MaxCode},
		{"pin-high-then-fall", fixed.MaxCode, 3},
		{"pin-low", 1, fixed.MaxCode - 2},
	}
	fill := func(seg []fixed.Code, pos, plus, minus int) {
		for i := range seg {
			c := plus
			if i >= pos {
				c = minus
			}
			if c < 0 {
				c = rng.IntN(fixed.Levels)
			}
			seg[i] = fixed.Code(c)
		}
	}
	long := flushCycles * Lanes
	for _, f := range fills {
		for _, gain := range []int{1, 2, 8, 9, 128, 129, 255} {
			for n := 0; n <= 5*Lanes+3; n++ {
				seg := make([]fixed.Code, n)
				for pos := 0; pos <= n; pos++ {
					fill(seg, pos, f.pos, f.neg)
					checkDot(t, seg, pos, gain)
				}
			}
			for _, n := range []int{long, long + 5, 2*long + 17, 3*long - 1} {
				seg := make([]fixed.Code, n)
				for _, pos := range []int{0, 1, 15, 16, 17, n / 2, long - 1, long, long + 1, n - 1, n} {
					pos = min(pos, n)
					fill(seg, pos, f.pos, f.neg)
					checkDot(t, seg, pos, gain)
				}
			}
		}
	}
	// Each lane's Σ⁺ is 40 000 and its Σ⁻ 10 000: the positives pin the rail
	// at 32 767, so the lane ends at 22 767, where a single clamp of
	// Σ⁺ − Σ⁻ would read 30 000.
	seg := bytes.Repeat([]byte{250}, 100*Lanes)
	if lanes := checkDot(t, fixed.CodesOf(seg), 80*Lanes, 2); lanes[0] != 22767 {
		t.Errorf("lane 0 = %d, want 22767", lanes[0])
	}
}

// FuzzAdderDot holds Dot to the per-sample reference on arbitrary codes,
// sign boundaries and gains. The seeds put MaxCode runs of 15, 16 and 17
// samples at gains either side of 8, above which sixteen of them reach a
// rail.
func FuzzAdderDot(f *testing.F) {
	f.Add([]byte{10, 20, 7, 5, 1}, uint16(1), uint8(1))
	for _, n := range []int{15, 16, 17} {
		for _, gain := range []uint8{8, 9} {
			f.Add(bytes.Repeat([]byte{fixed.MaxCode}, n), uint16(n), gain)
			f.Add(bytes.Repeat([]byte{fixed.MaxCode}, n), uint16(0), gain)
		}
	}
	f.Add(bytes.Repeat([]byte{250}, 100*Lanes), uint16(80*Lanes), uint8(2))
	f.Add(bytes.Repeat([]byte{fixed.MaxCode}, 2*flushCycles*Lanes+9), uint16(flushCycles*Lanes+3), uint8(129))
	f.Fuzz(func(t *testing.T, raw []byte, pos uint16, gain uint8) {
		checkDot(t, fixed.CodesOf(raw), int(pos)%(len(raw)+1), int(gain))
	})
}

// TreeSum is the reference TreeSumInPlace is held to: the same binary tree,
// a fresh slice per level, the input left alone.
func TreeSum(lanes []fixed.Acc) (sum fixed.Acc, cycles int) {
	if len(lanes) == 0 {
		return 0, 0
	}
	for ; len(lanes) > 1; cycles++ {
		next := make([]fixed.Acc, 0, (len(lanes)+1)/2)
		for i := 0; i+1 < len(lanes); i += 2 {
			next = append(next, fixed.SatAdd(lanes[i], lanes[i+1]))
		}
		if len(lanes)%2 == 1 {
			next = append(next, lanes[len(lanes)-1])
		}
		lanes = next
	}
	return lanes[0], cycles
}

// Property: folding in place pairs, saturates and counts cycles exactly as
// the reference tree does, full-range inputs included.
func TestTreeSumInPlaceMatchesReference(t *testing.T) {
	f := func(raw []int16) bool {
		lanes := make([]fixed.Acc, len(raw))
		for i, r := range raw {
			lanes[i] = fixed.Acc(r)
		}
		wantSum, wantCycles := TreeSum(lanes)
		sum, cycles := TreeSumInPlace(lanes)
		return sum == wantSum && cycles == wantCycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTreeSumCorrectAndLogDepth(t *testing.T) {
	lanes := make([]fixed.Acc, 16)
	var want fixed.Acc
	for i := range lanes {
		lanes[i] = fixed.Acc(i*3 - 8)
		want += lanes[i]
	}
	sum, cycles := TreeSum(lanes)
	if sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
	if cycles != 4 { // log2(16)
		t.Errorf("cycles = %d, want 4", cycles)
	}
}

func TestTreeSumEdgeCases(t *testing.T) {
	if s, c := TreeSum(nil); s != 0 || c != 0 {
		t.Errorf("empty tree: %d, %d", s, c)
	}
	if s, c := TreeSum([]fixed.Acc{7}); s != 7 || c != 0 {
		t.Errorf("singleton tree: %d, %d", s, c)
	}
	if s, c := TreeSum([]fixed.Acc{1, 2, 3}); s != 6 || c != 2 {
		t.Errorf("odd tree: %d, %d", s, c)
	}
}

func TestTreeCycles(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 16: 4, 17: 5}
	for k, want := range cases {
		if got := TreeCycles(k); got != want {
			t.Errorf("TreeCycles(%d) = %d, want %d", k, got, want)
		}
	}
}

// Property: for sign-free inputs that cannot saturate, tree sum equals the
// linear sum.
func TestTreeSumMatchesLinear(t *testing.T) {
	f := func(raw []int16) bool {
		lanes := make([]fixed.Acc, len(raw))
		var want int64
		for i, r := range raw {
			lanes[i] = fixed.Acc(r % 100)
			want += int64(lanes[i])
		}
		if want > fixed.AccMax || want < fixed.AccMin {
			return true // saturation exempt
		}
		sum, _ := TreeSum(lanes)
		return int64(sum) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// checkReassemble walks table over payload with one adder and runs the same
// dots through another a Dot each, as the engine reassembled a dot at a
// time: the rule retargeted to the segment's length, a readout cycle per
// Lanes samples and the tree charged. Both adders start from the same rule
// state, a count of prior partials under a target of 100. It fails on any
// difference in the sums, the compute cycles, the saturated samples or the
// rule's count, target and fires after the walk.
func checkReassemble(t testing.TB, payload []fixed.Code, table []dotCount, gain, prior int) {
	t.Helper()
	walk, ref := NewCrossCycleAdder(100), NewCrossCycleAdder(100)
	walk.Gain, ref.Gain = gain, gain
	walk.rule.Add(countaction.Value(prior))
	ref.rule.Add(countaction.Value(prior))
	got := make([]fixed.Acc, len(table))
	cycles, saturated := walk.reassemble(got, payload, table)
	var wantCycles, wantSat uint64
	for i, c := range table {
		ref.SetPartialsPerDot(c.parts)
		sum, treeCycles, sat := ref.Dot(payload[:c.parts], c.pos)
		payload = payload[c.parts:]
		if got[i] != sum {
			t.Fatalf("gain %d, dot %d of %v: walk summed %d, Dot %d", gain, i, table, got[i], sum)
		}
		wantCycles += uint64((c.parts+Lanes-1)/Lanes + treeCycles)
		wantSat += uint64(sat)
	}
	if cycles != wantCycles || saturated != wantSat {
		t.Fatalf("gain %d, table %v: walk charged %d cycles and %d saturated samples, Dot a dot %d and %d",
			gain, table, cycles, saturated, wantCycles, wantSat)
	}
	if w, r := ruleState(walk), ruleState(ref); w != r {
		t.Fatalf("gain %d, table %v: rule after the walk %+v, after Dot a dot %+v", gain, table, w, r)
	}
}

// TestReassembleMatchesPerDot holds the one-walk reassembly of a layer to
// Dot a dot on random count tables: up to 40 dots of 0 to 80 samples each,
// the sign boundary anywhere in a dot, codes that are 0 or 255 a quarter of
// the time each, at gains 1 and 2, from a rule that has counted nothing and
// from one holding prior partials. Segments of at most closedMax samples
// take the walk's closed form, the payload's last ones from its tail copy,
// and longer ones Dot. Dots of MaxCode samples either side of the closed
// form's bound — 16 at gain 8, 14 at gain 9, 64 at gain 2 — put the bound to
// the test: past it, the tree reaches the rail.
func TestReassembleMatchesPerDot(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 16))
	checkReassemble(t, nil, nil, 1, 0)
	for _, c := range []struct{ gain, bound int }{{8, 16}, {9, 14}, {2, 64}} {
		var table []dotCount
		for n := c.bound - 1; n <= c.bound+1; n++ {
			table = append(table, dotCount{pos: n, parts: n})
		}
		rail := bytes.Repeat([]byte{fixed.MaxCode}, 3*c.bound)
		checkReassemble(t, fixed.CodesOf(rail), table, c.gain, 0)
	}
	for _, gain := range []int{1, 2} {
		for trial := 0; trial < 500; trial++ {
			table, total := make([]dotCount, rng.IntN(41)), 0
			for i := range table {
				parts := rng.IntN(81)
				table[i] = dotCount{pos: rng.IntN(parts + 1), parts: parts}
				total += parts
			}
			payload := make([]fixed.Code, total)
			for i := range payload {
				switch rng.IntN(4) {
				case 0:
				case 1:
					payload[i] = fixed.MaxCode
				default:
					payload[i] = fixed.Code(rng.IntN(fixed.Levels))
				}
			}
			checkReassemble(t, payload, table, gain, []int{0, rng.IntN(100)}[trial%2])
		}
	}
}

// FuzzReassembleMatchesPerDot holds the walk to Dot a dot on arbitrary
// payloads cut into dots by arbitrary lengths and sign boundaries, at
// arbitrary gains.
func FuzzReassembleMatchesPerDot(f *testing.F) {
	f.Add(bytes.Repeat([]byte{fixed.MaxCode}, 40), []byte{16, 8, 17, 0, 0, 3}, uint8(1))
	f.Add([]byte{10, 20, 7, 5, 1, 0, 255}, []byte{5, 1, 2, 2}, uint8(2))
	f.Add(bytes.Repeat([]byte{250}, 100), []byte{40, 30, 30, 30}, uint8(9))
	f.Fuzz(func(t *testing.T, raw, cuts []byte, gain uint8) {
		var table []dotCount
		left := len(raw)
		for i := 0; i+1 < len(cuts) && left > 0; i += 2 {
			parts := min(int(cuts[i])%81, left)
			table = append(table, dotCount{pos: int(cuts[i+1]) % (parts + 1), parts: parts})
			left -= parts
		}
		checkReassemble(t, fixed.CodesOf(raw), table, int(gain), 0)
	})
}
