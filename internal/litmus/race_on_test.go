//go:build race

package litmus

// raceEnabled reports whether the race detector is instrumenting this
// build; see race_off_test.go.
const raceEnabled = true
