//go:build !race

package frontdoor

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
