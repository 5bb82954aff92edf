//go:build !race

package core

// raceEnabled reports whether the race detector is instrumenting this
// build. Alloc-count pins (testing.AllocsPerRun) skip under -race: the
// detector's instrumentation allocates on paths that are allocation-free
// in normal builds.
const raceEnabled = false
