//go:build race

package race

// Enabled reports whether the binary is built with the race detector.
const Enabled = true
