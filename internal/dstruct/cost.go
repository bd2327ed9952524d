package dstruct

import "math"

// The per-structure cost model m_ψ(n) of §4.3: an estimate of the number of
// memory accesses needed to look up a key in a structure holding n entries.
// The query planner's estimator E multiplies these along candidate plans.
// The constants follow the paper's examples (m_btree(n) = log2 n,
// m_dlist(n) = n) with small floors so empty structures are not free.

// LookupCost returns m_ψ(n) for kind k.
func LookupCost(k Kind, n float64) float64 {
	if n < 1 {
		n = 1
	}
	switch k {
	case DListKind, SListKind:
		return n / 2 // expected scan length
	case HTableKind:
		return 2 // hash + the home group, rarely a second
	case AVLKind, SortedArrKind, SkipListKind:
		return math.Log2(n) + 1
	case VectorKind:
		return 1
	default:
		return n
	}
}

// ScanCost returns the cost of iterating all n entries of a structure of
// kind k: the per-entry visit cost times n, with pointer-chasing structures
// slightly more expensive per entry than dense ones.
func ScanCost(k Kind, n float64) float64 {
	if n < 1 {
		n = 1
	}
	switch k {
	case VectorKind, SortedArrKind:
		return n
	default:
		return 2 * n
	}
}

// InsertCost returns the cost of inserting into a structure holding n
// entries. Lists are O(1); ordered structures pay a lookup; sorted arrays
// additionally shift.
func InsertCost(k Kind, n float64) float64 {
	if n < 1 {
		n = 1
	}
	switch k {
	case DListKind, SListKind:
		return 1
	case HTableKind:
		return 2
	case AVLKind, SkipListKind:
		return math.Log2(n) + 1
	case SortedArrKind:
		return math.Log2(n) + n/2
	case VectorKind:
		return 1
	default:
		return n
	}
}

// DeleteCost returns the cost of deleting from a structure holding n
// entries.
func DeleteCost(k Kind, n float64) float64 {
	if n < 1 {
		n = 1
	}
	switch k {
	case DListKind, SListKind:
		return n / 2 // scan for the key
	case HTableKind:
		return 2
	case AVLKind, SkipListKind:
		return math.Log2(n) + 1
	case SortedArrKind:
		return math.Log2(n) + n/2
	case VectorKind:
		return 1
	default:
		return n
	}
}
