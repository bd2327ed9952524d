//go:build !race

// Package race reports whether the race detector is built in. Tests that
// pin allocation counts or bytes skip their assertions under it: they
// measure the instrumented build rather than the one that ships.
package race

// Enabled reports whether the binary is built with the race detector.
const Enabled = false
