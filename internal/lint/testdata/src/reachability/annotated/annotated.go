// Package main exercises reachability's annotation: an annotated
// declaration's own finding is suppressed, and it is a root, so what only
// it calls is not flagged.
package main

func main() {}

// reference is the slow oracle a test compares the served path against.
//
//lint:allow reachability fixture: TestReference holds the served path to it
func reference(xs []int) int { return sum(xs) }

// sum is reached only through reference.
func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
