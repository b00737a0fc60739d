//lintpath github.com/lightning-smartnic/lightning/internal/sim

// Package fixture exercises stalesuppress's clean case: a reasoned
// annotation that still silences a live diagnostic is not stale.
package fixture

// Spawn leaves one goroutine unbounded deliberately; the reasoned allow is
// live.
func Spawn() {
	//lint:allow goleak fixture keeps one goroutine unbounded
	go func() {}()
}
