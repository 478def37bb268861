//go:build race

package experiments

// raceEnabled reports that the race detector is compiled in: its sync.Pool
// drops items at random, so a path that borrows pooled scratch allocates.
const raceEnabled = true
