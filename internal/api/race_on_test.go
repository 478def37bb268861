//go:build race

package api

// raceEnabled reports that the race detector is compiled in: its runtime
// drops sync.Pool contents at random, so allocation pins do not hold under it.
const raceEnabled = true
