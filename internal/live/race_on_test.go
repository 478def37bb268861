//go:build race

package live

// raceEnabled reports that the race detector is compiled in: its runtime
// inflates the heap and adds allocations, so heap and allocation budgets are
// not meaningful under it.
const raceEnabled = true
