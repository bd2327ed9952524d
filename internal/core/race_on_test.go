//go:build race

package core

// raceEnabled reports whether the race detector is active; under it exact
// allocation counts cannot be asserted.
const raceEnabled = true
