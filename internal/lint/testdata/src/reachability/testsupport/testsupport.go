// Package testsupport exercises reachability's package annotation: an
// annotated clause declares the whole package test support, so no program
// needs to reach it and none of its functions is flagged.
//
//lint:allow reachability fixture: tests in other packages inject faults through it
package testsupport

// Plan schedules faults for a test.
type Plan struct{ at []int }

// At schedules a fault.
func (p *Plan) At(step int) *Plan { p.at = append(p.at, step); return p }

// Due reports how many faults fall at or before step.
func (p *Plan) Due(step int) int {
	n := 0
	for _, s := range p.at {
		if s <= step {
			n++
		}
	}
	return n
}
