//go:build race

package profile

// raceEnabled reports that the race detector is compiled in: its runtime
// inflates the heap, so the bytes an allocation takes are not measurable
// under it.
const raceEnabled = true
