//go:build race

package journal

// raceEnabled reports that the race detector is active; allocation-budget
// assertions are skipped because instrumentation changes alloc counts.
const raceEnabled = true
