//lintpath github.com/lightning-smartnic/lightning/internal/sim

// Package main exercises stalesuppress's clean case: a reasoned
// annotation that still silences a live diagnostic is not stale.
package main

// Spawn leaves one goroutine unbounded deliberately; the reasoned allow is
// live.
func Spawn() {
	//lint:allow goleak fixture keeps one goroutine unbounded
	go func() {}()
}

// main makes the fixture a program, so the full suite's reachability check
// has roots and reaches Spawn.
func main() { Spawn() }
