//go:build race

package sim

// raceEnabled reports that the race detector is compiled in: its runtime
// inflates the heap, so the heap budget is not meaningful under it.
const raceEnabled = true
