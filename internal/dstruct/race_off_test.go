//go:build !race

package dstruct

// raceEnabled reports whether the race detector is active; allocation
// tests do not assert their counts under it, since they measure the
// instrumented build rather than the one that ships.
const raceEnabled = false
