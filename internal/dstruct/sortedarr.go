package dstruct

import (
	"slices"
	"sort"

	"repro/internal/colblock"
	"repro/internal/value"
)

// SortedArr keeps key/value pairs in two parallel arrays sorted by key, the
// keys strided — arity words per entry, back to back. Get is O(log n) by
// binary search; Put and Delete are O(n) due to shifting; Range is ordered.
// It is the right structure for small, read-mostly maps where
// pointer-chasing structures waste memory.
type SortedArr[V any] struct {
	keys   []colblock.Code
	vals   []V
	arity  int
	shared bool // both slices are shared with a Clone; copy before any write
}

// NewSortedArr returns an empty sorted array for keys of arity words.
func NewSortedArr[V any](arity int) *SortedArr[V] { return &SortedArr[V]{arity: arity} }

// Kind returns SortedArrKind.
func (s *SortedArr[V]) Kind() Kind { return SortedArrKind }

// Arity returns the number of words per key.
func (s *SortedArr[V]) Arity() int { return s.arity }

// Len returns the number of entries.
func (s *SortedArr[V]) Len() int { return len(s.vals) }

func (s *SortedArr[V]) key(i int) []colblock.Code {
	return s.keys[i*s.arity : (i+1)*s.arity : (i+1)*s.arity]
}

// search returns the insertion index for k and whether k is present there.
func (s *SortedArr[V]) search(vw colblock.View, k []colblock.Code) (int, bool) {
	i := sort.Search(len(s.vals), func(i int) bool { return vw.CompareKeys(s.key(i), k) >= 0 })
	return i, i < len(s.vals) && slices.Equal(s.key(i), k)
}

// Get returns the value for k.
func (s *SortedArr[V]) Get(vw colblock.View, k []colblock.Code) (V, bool) {
	if i, ok := s.search(vw, k); ok {
		return s.vals[i], true
	}
	var zero V
	return zero, false
}

// Get1 is the single-column-key point lookup: binary search over the key
// words themselves.
func (s *SortedArr[V]) Get1(vw colblock.View, k colblock.Code) (V, bool) {
	i := sort.Search(len(s.keys), func(i int) bool { return vw.Compare(s.keys[i], k) >= 0 })
	if i < len(s.keys) && s.keys[i] == k {
		return s.vals[i], true
	}
	var zero V
	return zero, false
}

// ownSlices makes the parallel arrays writable, copying both if a Clone
// still shares them (in-place shifts and truncations would otherwise leak
// through the shared backing).
func (s *SortedArr[V]) ownSlices() {
	if s.shared {
		s.keys = slices.Clone(s.keys)
		s.vals = slices.Clone(s.vals)
		s.shared = false
	}
}

// Put inserts or replaces the value for k.
func (s *SortedArr[V]) Put(vw colblock.View, k []colblock.Code, v V) {
	i, ok := s.search(vw, k)
	s.ownSlices()
	if ok {
		s.vals[i] = v
		return
	}
	s.keys = slices.Insert(s.keys, i*s.arity, k...)
	s.vals = slices.Insert(s.vals, i, v)
}

// Delete removes k.
func (s *SortedArr[V]) Delete(vw colblock.View, k []colblock.Code) (V, bool) {
	i, ok := s.search(vw, k)
	if !ok {
		var zero V
		return zero, false
	}
	s.ownSlices()
	val := s.vals[i]
	s.keys = slices.Delete(s.keys, i*s.arity, (i+1)*s.arity)
	s.vals = slices.Delete(s.vals, i, i+1)
	return val, true
}

// Clone returns an independent sorted array sharing both backing arrays
// with the receiver; whichever side writes first copies them.
//
//relvet:role=clone
func (s *SortedArr[V]) Clone() Words[V] {
	s.shared = true
	c := *s
	return &c
}

// Range visits entries in ascending key order. Snapshot semantics: entries
// are visited from a copy of the arrays, so deleting the visited entry is
// safe.
func (s *SortedArr[V]) Range(f func(k []colblock.Code, v V) bool) {
	keys, vals := slices.Clone(s.keys), slices.Clone(s.vals)
	for i, v := range vals {
		if !f(keys[i*s.arity:(i+1)*s.arity], v) {
			return
		}
	}
}

// RangeBetween visits the entries whose first key word lies in [lo, hi] by
// binary searching the lower bound.
func (s *SortedArr[V]) RangeBetween(vw colblock.View, lo, hi *value.Value, f func(k []colblock.Code, v V) bool) {
	start := 0
	if lo != nil {
		start = sort.Search(len(s.vals), func(i int) bool { return vw.CompareValue(s.keys[i*s.arity], *lo) >= 0 })
	}
	for i := start; i < len(s.vals); i++ {
		if hi != nil && vw.CompareValue(s.keys[i*s.arity], *hi) > 0 {
			return
		}
		if !f(s.key(i), s.vals[i]) {
			return
		}
	}
}

// AppendEntries appends entries in ascending key order (Range order).
func (s *SortedArr[V]) AppendEntries(ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	return append(ks, s.keys...), append(vs, s.vals...)
}

// Footprint counts the two arrays as entries.
func (s *SortedArr[V]) Footprint() Footprint {
	return Footprint{
		Entries:  codesBytes(s.keys) + AllocSize(cap(s.vals)*sizeOf[V]()),
		Overhead: AllocSize(sizeOf[SortedArr[V]]()),
	}
}
