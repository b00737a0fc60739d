//go:build !race

package nic

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
