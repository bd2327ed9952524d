// Package lib declares one export per case of the dead-export rule. Its
// callers are its own tests, other's test and the module in ../second,
// which stands in for a second module such as bench/.
package lib

// Dead has no caller anywhere.
func Dead() {} // want dead

// OnlyOwnTest is called by this package's tests alone, internal and
// external.
func OnlyOwnTest() {} // want dead

// UsedByOtherTest is a helper another package's test calls.
func UsedByOtherTest() {}

// UsedBySecondModule is called from the second module alone.
func UsedBySecondModule() {}

// Recursive calls only itself.
func Recursive(n int) int { // want dead
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Shape is the interface the second module calls Area through.
type Shape interface{ Area() int }

// Square is a Shape.
type Square struct{ N int }

// Area is named by Shape, so it is never flagged.
func (s Square) Area() int { return s.N * s.N }

// Side is named by no interface and called by nobody.
func (s Square) Side() int { return s.N } // want dead

// Unused is an exported variable nothing reads.
var Unused = 1 // want dead
