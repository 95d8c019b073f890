//go:build race

package core_test

// raceEnabled reports whether the test binary carries the race
// detector, which slows the interpreters by an order of magnitude.
const raceEnabled = true
