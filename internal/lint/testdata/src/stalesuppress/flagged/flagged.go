//lintpath github.com/lightning-smartnic/lightning/internal/sim

// Package fixture exercises stalesuppress's flagged cases: escape hatches
// that silence nothing. Bare annotations never suppress, a typo'd analyzer
// name suppresses nothing (and would outlive a rename silently), and a
// reasoned annotation whose violation has since been fixed is dead weight.
// The live goleak diagnostics under the non-suppressing annotations
// surface too: this fixture runs under the full suite, because staleness is
// only decidable relative to a whole run.
package fixture

import "time"

// bare annotations suppress nothing by design.
func bare() {
	//lint:allow goleak
	go func() {}()
}

// misnamed names no analyzer in the suite.
func misnamed() {
	//lint:allow clockwork simulated time is fine here
	go func() {}()
}

// healed fixed the violation its annotation excused; the hatch is now dead.
func healed(done chan struct{}) {
	//lint:allow goleak fixture exercising staleness
	go func() { <-done }()
}

// dropped carries a bare drop with no reason.
func dropped() {
	//lint:drop
	_ = time.Unix(0, 0)
}
