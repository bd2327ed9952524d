// Command second is the fixture's second module: what it calls counts as
// called, the way the frozen benchmark's calls do.
package main

import "repro/internal/vet/testdata/exports/lib"

func main() {
	lib.UsedBySecondModule()
	var s lib.Shape = lib.Square{N: 2}
	println(s.Area())
}
