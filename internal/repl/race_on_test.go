//go:build race

package repl

// raceEnabled reports whether the race detector is active; under it
// sync.Pool randomly drops items, so the engine's per-commit allocation
// count wobbles and exact counts cannot be asserted.
const raceEnabled = true
