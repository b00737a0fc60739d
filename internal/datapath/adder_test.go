package datapath

import (
	"testing"
	"testing/quick"

	"github.com/lightning-smartnic/lightning/internal/countaction"
	"github.com/lightning-smartnic/lightning/internal/fixed"
)

func TestCrossCycleAccumulateSigns(t *testing.T) {
	a := NewCrossCycleAdder(4)
	done := a.Accumulate([]fixed.Code{10, 20}, []bool{false, true})
	if done {
		t.Fatal("fired early")
	}
	done = a.Accumulate([]fixed.Code{5, 1}, []bool{false, false})
	if !done {
		t.Fatal("did not fire at 4 partials")
	}
	lanes := a.Drain()
	// Lane 0 accumulated +10 then +5 = 15; lane 1 −20 then +1 = −19.
	if lanes[0] != 15 || lanes[1] != -19 {
		t.Errorf("lanes = %d, %d", lanes[0], lanes[1])
	}
	if a.Ready() {
		t.Error("Ready after Drain")
	}
}

func TestCrossCycleLaneWraps(t *testing.T) {
	// More than Lanes samples round-robin back onto lane 0.
	a := NewCrossCycleAdder(Lanes + 1)
	samples := make([]fixed.Code, Lanes)
	negs := make([]bool, Lanes)
	for i := range samples {
		samples[i] = 1
	}
	a.Accumulate(samples, negs)
	a.Accumulate([]fixed.Code{100}, []bool{false})
	lanes := a.Drain()
	if lanes[0] != 101 {
		t.Errorf("lane 0 = %d, want 101", lanes[0])
	}
}

func TestCrossCyclePanics(t *testing.T) {
	a := NewCrossCycleAdder(1)
	for _, f := range []func(){
		func() { a.Accumulate(make([]fixed.Code, Lanes+1), make([]bool, Lanes+1)) },
		func() { a.Accumulate([]fixed.Code{1}, []bool{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Accumulate input did not panic")
				}
			}()
			f()
		}()
	}
}

func TestCrossCycleRetarget(t *testing.T) {
	a := NewCrossCycleAdder(100)
	a.SetPartialsPerDot(2)
	a.Accumulate([]fixed.Code{1}, []bool{false})
	if !a.Accumulate([]fixed.Code{1}, []bool{false}) {
		t.Error("retargeted rule did not fire at 2")
	}
}

func TestCrossCycleReset(t *testing.T) {
	a := NewCrossCycleAdder(10)
	a.Accumulate([]fixed.Code{50}, []bool{false})
	a.Reset()
	if l := a.Drain(); l[0] != 0 {
		t.Errorf("lane after Reset = %d", l[0])
	}
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

// TestCrossCycleOneCountPerCycleFiresAsPerSample: the adder evaluates its
// rule once per cycle with the cycle's sample count. The engine retargets
// the rule to exactly the segment length before streaming a segment in
// cycles of up to Lanes samples, so the count meets the target on the
// segment's last cycle and nowhere else — the cycle a rule fed one sample at
// a time fires on — and both end the segment at count zero with one fire.
func TestCrossCycleOneCountPerCycleFiresAsPerSample(t *testing.T) {
	for n := 1; n <= 5*Lanes+3; n++ {
		a := NewCrossCycleAdder(1)
		a.SetPartialsPerDot(n)
		perSample := countaction.New("per-sample", countaction.Value(n), nil)
		seg, negs := make([]fixed.Code, n), make([]bool, n)
		for i := 0; i < n; i += Lanes {
			end := min(i+Lanes, n)
			want := false
			for range seg[i:end] {
				want = perSample.Add(1) || want
			}
			if got := a.Accumulate(seg[i:end], negs[i:end]); got != want {
				t.Fatalf("segment of %d, cycle at %d: fired %v, per-sample rule %v", n, i, got, want)
			}
			if want != (end == n) {
				t.Fatalf("segment of %d: per-sample rule fired %v on the cycle ending at %d", n, want, end)
			}
		}
		snap := a.Module.Snapshot()[0]
		if snap.Count != perSample.Count() || snap.Fires != perSample.Fires || snap.Count != 0 || snap.Fires != 1 {
			t.Fatalf("segment of %d: adder rule %+v, per-sample count %d fires %d", n, snap, perSample.Count(), perSample.Fires)
		}
	}
}
