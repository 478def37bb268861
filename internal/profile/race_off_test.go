//go:build !race

package profile

const raceEnabled = false
