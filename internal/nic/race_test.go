//go:build race

package nic

// raceEnabled reports a -race build, whose sync.Pool drops a share of what
// is put into it at random: tests that check a pooled buffer's reuse skip
// that check there.
const raceEnabled = true
