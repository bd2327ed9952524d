package dstruct

import (
	"repro/internal/colblock"
	"repro/internal/value"
)

// SkipList is a probabilistic ordered map: expected O(log n) Get/Put/Delete
// with ordered iteration, trading the AVL tree's rebalancing for randomized
// tower heights. It exists mostly to demonstrate the library's
// extensibility — the paper: "The set of data structures is extensible; any
// data structure implementing a common interface may be used."
//
// The tower-height generator is deterministic (xorshift seeded per list),
// so instances built by identical operation sequences are identical, which
// the reproducibility of the benchmarks relies on.
type SkipList[V any] struct {
	head  *skipNode[V]
	level int
	n     int
	arity int
	rng   uint64
}

const skipMaxLevel = 24

type skipNode[V any] struct {
	key  nodeKey
	val  V
	next []*skipNode[V]
}

// NewSkipList returns an empty skip list for keys of arity words.
func NewSkipList[V any](arity int) *SkipList[V] {
	return &SkipList[V]{
		head:  &skipNode[V]{next: make([]*skipNode[V], skipMaxLevel)},
		level: 1,
		arity: arity,
		rng:   0x9e3779b97f4a7c15,
	}
}

// Kind returns SkipListKind.
func (s *SkipList[V]) Kind() Kind { return SkipListKind }

// Arity returns the number of words per key.
func (s *SkipList[V]) Arity() int { return s.arity }

// Len returns the number of entries.
func (s *SkipList[V]) Len() int { return s.n }

func (s *SkipList[V]) randomLevel() int {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	lvl := 1
	for x := s.rng; x&1 == 1 && lvl < skipMaxLevel; x >>= 1 {
		lvl++
	}
	return lvl
}

// seek descends the towers to the first node for which before reports
// false — before must be monotone along the list — filling pred, when
// given, with the rightmost node it holds for on each level.
func (s *SkipList[V]) seek(before func(n *skipNode[V]) bool, pred []*skipNode[V]) *skipNode[V] {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && before(x.next[i]) {
			x = x.next[i]
		}
		if pred != nil {
			pred[i] = x
		}
	}
	return x.next[0]
}

// findPred fills pred with the rightmost node strictly before k on each
// level and returns the candidate node at level 0.
func (s *SkipList[V]) findPred(vw colblock.View, k []colblock.Code, pred []*skipNode[V]) *skipNode[V] {
	return s.seek(func(n *skipNode[V]) bool { return n.key.cmpTo(vw, k) > 0 }, pred)
}

// Get returns the value for k.
func (s *SkipList[V]) Get(vw colblock.View, k []colblock.Code) (V, bool) {
	if n := s.findPred(vw, k, nil); n != nil && n.key.eq(k) {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Get1 is the single-column-key point lookup: the level descent compares
// one word per node.
func (s *SkipList[V]) Get1(vw colblock.View, k colblock.Code) (V, bool) {
	n := s.seek(func(n *skipNode[V]) bool { return vw.Compare(n.key.k0, k) < 0 }, nil)
	if n != nil && n.key.k0 == k {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value for k.
func (s *SkipList[V]) Put(vw colblock.View, k []colblock.Code, v V) {
	pred := make([]*skipNode[V], skipMaxLevel)
	for i := range pred {
		pred[i] = s.head
	}
	if n := s.findPred(vw, k, pred); n != nil && n.key.eq(k) {
		n.val = v
		return
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		s.level = lvl
	}
	node := &skipNode[V]{key: makeNodeKey(k), val: v, next: make([]*skipNode[V], lvl)}
	for i := 0; i < lvl; i++ {
		node.next[i] = pred[i].next[i]
		pred[i].next[i] = node
	}
	s.n++
}

// Delete removes k.
func (s *SkipList[V]) Delete(vw colblock.View, k []colblock.Code) (V, bool) {
	pred := make([]*skipNode[V], skipMaxLevel)
	for i := range pred {
		pred[i] = s.head
	}
	n := s.findPred(vw, k, pred)
	if n == nil || !n.key.eq(k) {
		var zero V
		return zero, false
	}
	for i := 0; i < len(n.next); i++ {
		if pred[i].next[i] == n {
			pred[i].next[i] = n.next[i]
		}
	}
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
	s.n--
	return n.val, true
}

// Clone returns an independent copy: an eager relink in key order on a
// fresh deterministic tower generator. Towers embed mutable next arrays at
// every level, so lazy sharing would need per-level ownership tracking for
// a structure whose whole point is simplicity. Appending in key order needs
// no comparison, so it needs no dictionary view either.
//
//relvet:role=clone
func (s *SkipList[V]) Clone() Words[V] {
	c := NewSkipList[V](s.arity)
	tail := make([]*skipNode[V], skipMaxLevel)
	for i := range tail {
		tail[i] = c.head
	}
	for n := s.head.next[0]; n != nil; n = n.next[0] {
		lvl := c.randomLevel()
		if lvl > c.level {
			c.level = lvl
		}
		node := &skipNode[V]{key: n.key, val: n.val, next: make([]*skipNode[V], lvl)}
		for i := 0; i < lvl; i++ {
			tail[i].next[i] = node
			tail[i] = node
		}
		c.n++
	}
	return c
}

// Range visits entries in ascending key order.
func (s *SkipList[V]) Range(f func(k []colblock.Code, v V) bool) {
	kb := make([]colblock.Code, 0, s.arity)
	for n := s.head.next[0]; n != nil; {
		next := n.next[0]
		if !f(n.key.appendTo(kb), n.val) {
			return
		}
		n = next
	}
}

// RangeBetween visits the entries whose first key word lies in [lo, hi],
// seeking the lower bound through the towers.
func (s *SkipList[V]) RangeBetween(vw colblock.View, lo, hi *value.Value, f func(k []colblock.Code, v V) bool) {
	n := s.head.next[0]
	if lo != nil {
		n = s.seek(func(n *skipNode[V]) bool { return vw.CompareValue(n.key.k0, *lo) < 0 }, nil)
	}
	kb := make([]colblock.Code, 0, s.arity)
	for ; n != nil; n = n.next[0] {
		if hi != nil && vw.CompareValue(n.key.k0, *hi) > 0 {
			return
		}
		if !f(n.key.appendTo(kb), n.val) {
			return
		}
	}
}

// AppendEntries appends entries in ascending key order (Range order).
func (s *SkipList[V]) AppendEntries(ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	for n := s.head.next[0]; n != nil; n = n.next[0] {
		ks = n.key.appendTo(ks)
		vs = append(vs, n.val)
	}
	return ks, vs
}

// Footprint counts the nodes as entries and their towers, with the head's,
// as overhead.
func (s *SkipList[V]) Footprint() Footprint {
	fp := Footprint{Overhead: AllocSize(sizeOf[SkipList[V]]()) + AllocSize(sizeOf[skipNode[V]]()) + AllocSize(skipMaxLevel*wordBytes)}
	for n := s.head.next[0]; n != nil; n = n.next[0] {
		fp.Entries += AllocSize(sizeOf[skipNode[V]]()) + n.key.bytes()
		fp.Overhead += AllocSize(cap(n.next) * wordBytes)
	}
	return fp
}
