package main

import "testing"

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
