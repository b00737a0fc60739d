package workload

import (
	"bytes"
	"testing"
)

// The same seed must give byte-identical pools and oracle answers; another
// seed must give other queries.
func TestBuildIsDeterministicInSeed(t *testing.T) {
	for _, spec := range Specs {
		a, err := Build(spec.Name, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(spec.Name, 42)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Build(spec.Name, 43)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Pool) != PoolSize || len(a.Oracle) != PoolSize {
			t.Fatalf("%s: pool %d, oracle %d, want %d", spec.Name, len(a.Pool), len(a.Oracle), PoolSize)
		}
		differs := false
		for i := range a.Pool {
			if !bytes.Equal(a.Pool[i], b.Pool[i]) || a.Oracle[i] != b.Oracle[i] {
				t.Fatalf("%s: query %d differs between two builds of seed 42", spec.Name, i)
			}
			if !bytes.Equal(a.Pool[i], c.Pool[i]) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 43 drew the same pool", spec.Name)
		}
	}
}

// Pool queries are distinct and both classes occur, so a server that always
// answers one class cannot pass the oracle check.
func TestPoolsAreDistinctAndCoverBothClasses(t *testing.T) {
	for _, spec := range Specs {
		w, err := Build(spec.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		classes := make(map[int]int)
		for i, q := range w.Pool {
			if seen[string(q)] {
				t.Errorf("%s: query %d repeats an earlier one", spec.Name, i)
			}
			seen[string(q)] = true
			classes[w.Oracle[i]]++
		}
		if len(classes) != 2 || classes[0] < PoolSize/8 || classes[1] < PoolSize/8 {
			t.Errorf("%s: oracle classes %v are not both well represented", spec.Name, classes)
		}
	}
}

func TestFragmentCounts(t *testing.T) {
	for name, want := range map[string]int{"wire_small": 1, "mlp_serial": 1, "vision_frag": 109} {
		w, err := Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if w.Fragments != want {
			t.Errorf("%s: %d fragments per query, want %d", name, w.Fragments, want)
		}
	}
}

// A halves query's dim half must sum far below the 16-bit accumulator's
// ceiling, or the served answer is decided by saturation instead of by the
// query.
func TestHalvesDimHalfStaysBelowSaturation(t *testing.T) {
	for _, width := range []int{64, VisionWidth} {
		for _, q := range halvesPool(width, 5) {
			lo, hi := 0, 0
			for i, b := range q {
				if i < width/2 {
					lo += int(b)
				} else {
					hi += int(b)
				}
			}
			if dim := min(lo, hi); dim > 32767/3 {
				t.Fatalf("width %d: dim half sums to %d", width, dim)
			}
		}
	}
}
