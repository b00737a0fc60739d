package main

import "testing"

// A test's call is no path from a program root: the loader reads no test
// file.
func TestOnlyTested(t *testing.T) {
	if onlyTested() != 1 {
		t.Fatal("onlyTested")
	}
}
