//go:build !race

package instance

// raceEnabled reports whether the race detector is active; under it exact
// allocation counts cannot be asserted.
const raceEnabled = false
