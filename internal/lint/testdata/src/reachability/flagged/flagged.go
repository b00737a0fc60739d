// Package main exercises reachability's flagged cases: a function that only
// a test calls, and a method of a reached type that nothing calls or
// dispatches to, have no path from main.
package main

func main() {
	var c counter
	c.inc()
	used()
}

func used() {}

// onlyTested is called by flagged_test.go alone.
func onlyTested() int { return 1 }

type counter struct{ n int }

func (c *counter) inc() { c.n++ }

// reset has a reached receiver, but no call and no interface reaches it.
func (c *counter) reset() { c.n = 0 }
