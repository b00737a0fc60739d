package main

import (
	"testing"
	"time"
)

// TestCheckModelFlags: -model none refuses -load and -save as usage errors
// (checked before any file is opened), and every named model takes both.
func TestCheckModelFlags(t *testing.T) {
	for _, c := range []struct {
		model, load, save string
		ok                bool
	}{
		{"none", "", "", true},
		{"none", "m.bin", "", false},
		{"none", "", "m.bin", false},
		{"none", "a.bin", "b.bin", false},
		{"anomaly", "m.bin", "", true},
		{"digits", "", "m.bin", true},
		{"iot", "a.bin", "b.bin", true},
	} {
		err := checkModelFlags(c.model, c.load, c.save)
		if (err == nil) != c.ok {
			t.Errorf("checkModelFlags(%q, load %q, save %q) = %v, want ok %v", c.model, c.load, c.save, err, c.ok)
		}
	}
}

// TestCheckServeFlags: the batching and admission flags the inline reader
// (-workers 1 or less) would ignore or misuse are usage errors, and so is
// -max-delay without a batch queue; with a worker pool every one is taken.
func TestCheckServeFlags(t *testing.T) {
	for _, c := range []struct {
		name         string
		workers      int
		maxBatch     int
		maxDelay     time.Duration
		admitQueue   int
		admitBudget  time.Duration
		admitWeights string
		ok           bool
	}{
		{"defaults", 1, 1, 0, 0, 0, "", true},
		{"inline with a queue", 1, 8, 0, 0, 0, "", false},
		{"no workers with a queue", 0, 2, 0, 0, 0, "", false},
		{"pool with a queue", 16, 8, 0, 0, 0, "", true},
		{"pool with a queue and a delay", 8, 8, 200 * time.Microsecond, 0, 0, "", true},
		{"delay without a queue", 8, 1, 200 * time.Microsecond, 0, 0, "", false},
		{"delay inline", 1, 1, time.Millisecond, 0, 0, "", false},
		{"inline admit-queue", 1, 1, 0, 64, 0, "", false},
		{"inline admit-budget", 1, 1, 0, 0, 50 * time.Millisecond, "", false},
		{"inline admit-weights", 1, 1, 0, 0, 0, "1:3,2:1", false},
		{"pool with admission", 4, 1, 0, 512, 50 * time.Millisecond, "1:3,2:1", true},
	} {
		err := checkServeFlags(c.workers, c.maxBatch, c.maxDelay, c.admitQueue, c.admitBudget, c.admitWeights)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkServeFlags = %v, want ok %v", c.name, err, c.ok)
		}
	}
}
