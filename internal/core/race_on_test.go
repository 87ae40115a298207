//go:build race

package core

// raceEnabled reports whether the race detector is on: it makes sync.Pool
// drop items on purpose, so allocation counts are not asserted under it.
const raceEnabled = true
