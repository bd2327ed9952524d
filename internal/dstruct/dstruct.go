// Package dstruct is the library of primitive data structures from which
// decompositions are assembled (§3, §6 of the paper). Every structure
// implements one associative-container interface, Map, from tuple-valued
// keys to values; the decomposition runtime and the code generator are
// parameterized over the choice of structure ψ exactly as the paper's RELC
// is parameterized over its C++ templates.
//
// The set of structures mirrors the paper's library: unordered lists in the
// doubly-linked (insertion order) and singly-linked (newest first) roles —
// one chunked copy-on-write body under both, removal by key, no intrusive
// handles — chained hash tables, AVL trees (the ordered
// std::map/boost::intrusive::set role), vectors, and sorted arrays. All are
// implemented here from scratch on stdlib only.
package dstruct

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/value"
)

// Kind names a primitive data structure ψ.
type Kind string

// The available data structures.
const (
	DListKind     Kind = "dlist"     // unordered list, iterates in insertion order
	SListKind     Kind = "slist"     // unordered list, iterates newest first
	HTableKind    Kind = "htable"    // chained hash table
	AVLKind       Kind = "avl"       // AVL tree, ordered iteration
	VectorKind    Kind = "vector"    // dense array over small integer keys
	SortedArrKind Kind = "sortedarr" // sorted array, binary search
	SkipListKind  Kind = "skiplist"  // probabilistic ordered map
)

// AllKinds lists every Kind, in a stable order used by the autotuner when it
// enumerates data-structure assignments.
func AllKinds() []Kind {
	return []Kind{DListKind, SListKind, HTableKind, AVLKind, VectorKind, SortedArrKind, SkipListKind}
}

// Valid reports whether k names a known structure.
func (k Kind) Valid() bool {
	switch k {
	case DListKind, SListKind, HTableKind, AVLKind, VectorKind, SortedArrKind, SkipListKind:
		return true
	}
	return false
}

// Ordered reports whether the structure iterates keys in sorted order.
func (k Kind) Ordered() bool {
	return k == AVLKind || k == SortedArrKind || k == VectorKind || k == SkipListKind
}

// IntKeyedOnly reports whether the structure can only key on a single
// integer column (the vector of the paper, which maps keys to values by
// array index).
func (k Kind) IntKeyedOnly() bool { return k == VectorKind }

// A Map is an associative container from tuple keys to values of type V.
// All keys stored in a single Map share one column domain; the decomposition
// type system guarantees this, and implementations may exploit it (e.g. the
// AVL tree compares values column-wise).
//
// Range visits entries until the callback returns false; the iteration order
// is insertion order for dlist, newest first for slist, bucket order for
// hash tables, and key order for ordered structures.
type Map[V any] interface {
	// Get returns the value for k and whether it is present.
	Get(k relation.Tuple) (V, bool)
	// GetByValue is Get specialized to maps keyed by exactly one column: it
	// looks up the entry whose single key value is v without materializing a
	// key tuple, so compiled point accesses allocate nothing on the way
	// down. Callers must only use it on single-column-keyed maps.
	GetByValue(v value.Value) (V, bool)
	// Put inserts or replaces the value for k.
	Put(k relation.Tuple, v V)
	// Delete removes k, reporting whether it was present.
	Delete(k relation.Tuple) bool
	// Len returns the number of entries.
	Len() int
	// Range visits entries until f returns false.
	Range(f func(k relation.Tuple, v V) bool)
	// Clone returns an independent copy of the map: mutating either side
	// after the call never changes what the other side observes. Every
	// structure but the skip list shares substructure with its clone and
	// copies lazily on the first write to each shared piece (a tree path, a
	// bucket chain, a list chunk, a whole array), so Clone itself is O(1);
	// the skip list copies eagerly. The clone is the same concrete
	// kind as the receiver, preserving optional capabilities (Ranger,
	// Entries). Clone is the primitive under copy-on-write versioning
	// (instance.BeginVersion): a frozen version's maps are never mutated, so
	// readers may traverse them while the clone absorbs writes.
	Clone() Map[V]
	// Kind identifies the underlying structure.
	Kind() Kind
}

// New constructs an empty Map of the given kind. It panics on an unknown
// kind; decomposition validation rejects unknown kinds long before a Map is
// built. While a faultinject plane is installed the map is wrapped with
// injection points (see fault.go); otherwise the bare structure is returned
// and injection costs nothing.
func New[V any](k Kind) Map[V] {
	return wrapFault(newBare[V](k))
}

func newBare[V any](k Kind) Map[V] {
	switch k {
	case DListKind:
		return NewDList[V]()
	case SListKind:
		return NewSList[V]()
	case HTableKind:
		return NewHTable[V]()
	case AVLKind:
		return NewAVL[V]()
	case VectorKind:
		return NewVector[V]()
	case SortedArrKind:
		return NewSortedArr[V]()
	case SkipListKind:
		return NewSkipList[V]()
	default:
		panic(fmt.Sprintf("dstruct: unknown kind %q", k))
	}
}
