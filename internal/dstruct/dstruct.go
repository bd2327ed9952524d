// Package dstruct is the library of primitive data structures from which
// decompositions are assembled (§3, §6 of the paper). Every structure
// implements one associative-container interface, Words, from keys of a
// fixed number of code words (package colblock) to values; the
// decomposition runtime and the code generator are parameterized over the
// choice of structure ψ exactly as the paper's RELC is parameterized over
// its C++ templates. Map, the same container keyed by relation.Tuple, is one
// boxing adapter over Words (boxed.go) for callers outside the storage
// layer.
//
// The set of structures mirrors the paper's library: unordered lists in the
// doubly-linked (insertion order) and singly-linked (newest first) roles —
// one body under both, up to four key words inline in the list's header and
// chunked copy-on-write past that, removal by key, no intrusive handles —
// open-addressed hash tables in groups of sixteen slots, AVL
// trees (the ordered std::map/boost::intrusive::set role), vectors, and
// sorted arrays. All are implemented here from scratch on stdlib only.
package dstruct

import (
	"fmt"

	"repro/internal/colblock"
	"repro/internal/relation"
	"repro/internal/value"
)

// Kind names a primitive data structure ψ.
type Kind string

// The available data structures.
const (
	DListKind     Kind = "dlist"     // unordered list, iterates in insertion order
	SListKind     Kind = "slist"     // unordered list, iterates newest first
	HTableKind    Kind = "htable"    // open-addressed hash table, 16-slot groups
	AVLKind       Kind = "avl"       // AVL tree, ordered iteration
	VectorKind    Kind = "vector"    // dense array over small integer keys
	SortedArrKind Kind = "sortedarr" // sorted array, binary search
	SkipListKind  Kind = "skiplist"  // probabilistic ordered map
)

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

// Words is an associative container from keys of Arity code words to values
// of type V: the storage form of a map edge. A key is the codes of the
// edge's key columns in column order, all from one dictionary lineage; the
// arity is fixed when the container is built, so no entry carries column
// names, and a single-column key — almost every edge of a practical
// decomposition — is one word inline in its entry.
//
// Unordered kinds hash and compare the words themselves. Ordered kinds order
// keys as the values they encode order (colblock.View.CompareKeys), which
// needs the dictionary only when a word is a dictionary reference; every
// operation that may compare takes the caller's View for that. Key slices
// passed in are not retained.
//
// Range visits entries until the callback returns false; the iteration order
// is insertion order for dlist, newest first for slist, group order for
// hash tables, and key order for ordered structures. The key slice handed to
// the callback is valid until the callback returns or changes the map.
type Words[V any] interface {
	// Arity returns the number of words in every key.
	Arity() int
	// Get returns the value for k and whether it is present.
	Get(vw colblock.View, k []colblock.Code) (V, bool)
	// Get1 is Get on a container of arity one, the key passed as the word it
	// is.
	Get1(vw colblock.View, k colblock.Code) (V, bool)
	// Put inserts or replaces the value for k.
	Put(vw colblock.View, k []colblock.Code, v V)
	// Delete removes k, returning the value it held and whether it was
	// present.
	Delete(vw colblock.View, k []colblock.Code) (V, bool)
	// Len returns the number of entries.
	Len() int
	// Range visits entries until f returns false.
	Range(f func(k []colblock.Code, v V) bool)
	// AppendEntries appends every entry in Range order: the key words to ks,
	// Arity per entry, and the values to vs. It allocates nothing beyond
	// growing the two slices.
	AppendEntries(ks []colblock.Code, vs []V) ([]colblock.Code, []V)
	// Clone returns an independent copy of the map: mutating either side
	// after the call never changes what the other side observes. Every
	// structure but the skip list shares substructure with its clone and
	// copies lazily on the first write to each shared piece (a tree path, a
	// hash-table group, a list chunk, a whole array), so Clone itself is O(1);
	// a list that fits in its header is copied whole, which is O(1) too, and
	// the skip list copies eagerly. The clone is the same concrete
	// kind as the receiver, preserving the optional WordRanger. Clone is the
	// primitive under copy-on-write versioning (instance.BeginVersion): a
	// frozen version's maps are never mutated, so readers may traverse them
	// while the clone absorbs writes.
	Clone() Words[V]
	// Kind identifies the underlying structure.
	Kind() Kind
	// Footprint reports the heap the container holds.
	Footprint() Footprint
}

// A Footprint is a container's resident heap in bytes, as allocated (rounded
// to the allocator's size classes): Entries is what holds key words and
// values — list chunks or a small list's inline arrays, hash-table groups,
// sorted arrays, vector slots and tree nodes, whose links are part of the
// node — and Overhead is everything else: the container header, group and
// chunk directories and skip-list towers.
type Footprint struct {
	Entries, Overhead int
}

// NewWords constructs an empty container of the given kind for keys of
// arity words. It panics on an unknown kind or an arity below one;
// decomposition validation rejects both long before a container is built.
// While a faultinject plane is installed the container is wrapped with
// injection points (see fault.go); otherwise the bare structure is returned
// and injection costs nothing.
func NewWords[V any](k Kind, arity int) Words[V] {
	if arity < 1 {
		panic(fmt.Sprintf("dstruct: %s container with key arity %d", k, arity))
	}
	return wrapFault(newBare[V](k, arity))
}

func newBare[V any](k Kind, arity int) Words[V] {
	switch k {
	case DListKind:
		return NewDList[V](arity)
	case SListKind:
		return NewSList[V](arity)
	case HTableKind:
		return NewHTable[V](arity)
	case AVLKind:
		return NewAVL[V](arity)
	case VectorKind:
		return NewVector[V](arity)
	case SortedArrKind:
		return NewSortedArr[V](arity)
	case SkipListKind:
		return NewSkipList[V](arity)
	default:
		panic(fmt.Sprintf("dstruct: unknown kind %q", k))
	}
}

// A Map is a Words container seen from outside the storage layer: keys are
// tuples, boxed and unboxed on every call. The interpreter, the closure
// program the benchmark still times, the abstraction function and well-formedness check, the
// container probes of the benchmark and most tests speak it; nothing on a
// mutation or vectorized read path does.
//
// All keys stored in a single Map share one column domain, and only their
// values are compared.
type Map[V any] interface {
	// Get returns the value for k and whether it is present.
	Get(k relation.Tuple) (V, bool)
	// GetByValue is Get on a map keyed by exactly one column.
	GetByValue(v value.Value) (V, bool)
	// Put inserts or replaces the value for k.
	Put(k relation.Tuple, v V)
	// Delete removes k, reporting whether it was present.
	Delete(k relation.Tuple) bool
	// Len returns the number of entries.
	Len() int
	// Range visits entries until f returns false.
	Range(f func(k relation.Tuple, v V) bool)
	// Clone returns an independent copy of the map; see Words.Clone.
	Clone() Map[V]
	// Kind identifies the underlying structure.
	Kind() Kind
}

// New constructs an empty stand-alone Map of the given kind with a
// dictionary of its own; the first Put fixes its key columns. It panics on
// an unknown kind.
func New[V any](k Kind) Map[V] {
	if !k.Valid() {
		panic(fmt.Sprintf("dstruct: unknown kind %q", k))
	}
	return newBoxed[V](k)
}
