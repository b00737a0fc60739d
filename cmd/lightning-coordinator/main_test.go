package main

import (
	"testing"
	"time"
)

// TestCheckFlags: -hedge needs -replicate, -depth needs -synthetic, and
// -load and -synthetic exclude each other; each refusal comes before any
// node is dialled.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name      string
		set       []string
		load      string
		synthetic int
		replicate bool
		hedge     time.Duration
		ok        bool
	}{
		{"synthetic", []string{"synthetic"}, "", 64, false, 0, true},
		{"load", []string{"load"}, "m.bin", 0, false, 0, true},
		{"synthetic depth", []string{"synthetic", "depth"}, "", 64, false, 0, true},
		{"replicate hedge", []string{"synthetic", "replicate", "hedge"}, "", 64, true, 5 * time.Millisecond, true},
		{"replicate no hedge", []string{"synthetic", "replicate"}, "", 64, true, 0, true},
		{"hedge without replicate", []string{"synthetic", "hedge"}, "", 64, false, 5 * time.Millisecond, false},
		{"depth without synthetic", []string{"load", "depth"}, "m.bin", 0, false, 0, false},
		{"depth with synthetic 0", []string{"load", "synthetic", "depth"}, "m.bin", 0, false, 0, false},
		{"load and synthetic", []string{"load", "synthetic"}, "m.bin", 64, false, 0, false},
	} {
		set := map[string]bool{}
		for _, f := range c.set {
			set[f] = true
		}
		err := checkFlags(set, c.load, c.synthetic, c.replicate, c.hedge)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags = %v, want ok %v", c.name, err, c.ok)
		}
	}
}
