// Package unreached exercises reachability's package finding: no program
// imports it, so nothing in it is reached, and it is reported once, at its
// clause, not once per function.
package unreached

// Sum adds xs.
func Sum(xs []int) int { return add(0, xs) }

func add(acc int, xs []int) int {
	for _, x := range xs {
		acc += x
	}
	return acc
}

// Meter counts.
type Meter struct{ n int }

// Mark counts one.
func (m *Meter) Mark() { m.n++ }
