package dstruct

import (
	"repro/internal/relation"
	"repro/internal/value"
)

// listChunkCap is the most entries one chunk of a list holds. It trades the
// two copies the first write after a Clone pays: the chunk directory (one
// header per chunk, n/listChunkCap of them) against the one chunk the write
// lands in (up to listChunkCap entries). Larger chunks shrink the directory
// and grow the chunk copy; 32 keeps both under 2 KB for lists of a thousand
// entries.
const listChunkCap = 32

// listFirstCap is the capacity a list's first chunk starts with. Most lists
// a decomposition builds hold a handful of entries, so the first chunk
// starts small and doubles; later chunks are allocated full.
const listFirstCap = 4

// list is the body DList and SList share: an unordered sequence of key/value
// entries kept in insertion order in chunks of at most listChunkCap entries,
// with a directory of chunk headers over them. Lookup and delete-by-key scan;
// insertion appends to the last chunk.
//
// Copy-on-write state follows HTable's discipline. A chunk is writable in
// place iff its owner token is the list's; Clone hands both sides fresh
// tokens and marks the directory shared, so the first write of either side
// copies the directory plus the one chunk it changes and leaves every other
// chunk shared. Before any Clone all tokens are nil, nil == nil, and writes
// mutate in place at no extra cost. Readers (Get, Range, AppendEntries) never
// touch the tokens or the flag, so a frozen version may be read while it is
// being cloned.
//
// Directory invariants (checkInvariant): no chunk is empty, and every
// adjacent pair of chunks holds more than listChunkCap/2 entries together —
// Delete merges a pair that no longer does — so the directory is never
// longer than 4·n/listChunkCap + 2 however the list is churned. A directory
// that changes shape is replaced, never shifted in place, whether or not a
// Clone shares it: a Range in progress may keep the one it started on.
type list[V any] struct {
	dir []listChunk[V]
	n   int

	owner     *listOwner
	sharedDir bool // dir's backing array is shared with a Clone
}

type listOwner struct{ _ byte }

// listChunk is a directory slot. Chunks live in the directory by value: the
// lists a graph decomposition builds average under four entries, and a
// pointer hop per chunk costs those more than the wider directory copy costs
// long lists.
type listChunk[V any] struct {
	ents  []listEntry[V]
	owner *listOwner
}

type listEntry[V any] struct {
	key relation.Tuple
	val V
}

// Len returns the number of entries.
func (l *list[V]) Len() int { return l.n }

// find returns the chunk and offset of k's entry, or -1. Keys of one map
// share a column domain (see Map), so only the values are compared.
func (l *list[V]) find(k relation.Tuple) (int, int) {
	for ci := range l.dir {
		ents := l.dir[ci].ents
		for i := range ents {
			if ents[i].key.EqualValues(k) {
				return ci, i
			}
		}
	}
	return -1, -1
}

// Get returns the value for k.
func (l *list[V]) Get(k relation.Tuple) (V, bool) {
	if ci, i := l.find(k); ci >= 0 {
		return l.dir[ci].ents[i].val, true
	}
	var zero V
	return zero, false
}

// GetByValue is the single-column-key point lookup: a linear scan comparing
// the sole key values, with no key tuple and no allocation.
func (l *list[V]) GetByValue(v value.Value) (V, bool) {
	for ci := range l.dir {
		ents := l.dir[ci].ents
		for i := range ents {
			if ents[i].key.ValueAt(0) == v {
				return ents[i].val, true
			}
		}
	}
	var zero V
	return zero, false
}

// ownDir makes the directory writable, copying it if a Clone still shares
// it. The copy has room for one more chunk, so a Put that fills the tail in
// the same version does not copy the directory again.
func (l *list[V]) ownDir() {
	if l.sharedDir {
		dir := make([]listChunk[V], len(l.dir), len(l.dir)+1)
		copy(dir, l.dir)
		l.dir, l.sharedDir = dir, false
	}
}

// copyCap is the capacity a copy of chunk ci holding n entries is allocated
// with: exactly n, except that the tail — the only chunk that grows — gets
// room for the Put that typically follows in the same version.
func (l *list[V]) copyCap(ci, n int) int {
	if ci == len(l.dir)-1 {
		return min(n+1, listChunkCap)
	}
	return n
}

// ownChunk makes chunk ci writable in place, copying it if this list does
// not own it, and returns its entries.
func (l *list[V]) ownChunk(ci int) []listEntry[V] {
	l.ownDir()
	c := &l.dir[ci]
	if c.owner != l.owner {
		ents := make([]listEntry[V], len(c.ents), l.copyCap(ci, len(c.ents)))
		copy(ents, c.ents)
		*c = listChunk[V]{ents: ents, owner: l.owner}
	}
	return c.ents
}

// Put inserts or replaces the value for k; a new key goes after every
// existing entry, a replaced one keeps its position.
func (l *list[V]) Put(k relation.Tuple, v V) {
	if ci, i := l.find(k); ci >= 0 {
		l.ownChunk(ci)[i].val = v
		return
	}
	l.n++
	e := listEntry[V]{key: k, val: v}
	last := len(l.dir) - 1
	if last < 0 || len(l.dir[last].ents) == listChunkCap {
		c := listChunkCap
		if last < 0 {
			c = listFirstCap
		}
		l.ownDir()
		l.dir = append(l.dir, listChunk[V]{ents: append(make([]listEntry[V], 0, c), e), owner: l.owner})
		return
	}
	ents := l.ownChunk(last)
	if len(ents) == cap(ents) {
		grown := make([]listEntry[V], len(ents), min(2*cap(ents), listChunkCap))
		copy(grown, ents)
		ents = grown
	}
	l.dir[last].ents = append(ents, e)
}

// without appends ents minus the entry at i to dst.
func without[V any](dst, ents []listEntry[V], i int) []listEntry[V] {
	return append(append(dst, ents[:i]...), ents[i+1:]...)
}

// Delete removes k by scanning for it.
func (l *list[V]) Delete(k relation.Tuple) bool {
	ci, i := l.find(k)
	if ci < 0 {
		return false
	}
	l.n--
	cur := l.dir[ci].ents
	left := len(cur) - 1
	// Chunks [lo, hi] are rewritten as one (or none, when ci empties): ci
	// and a neighbour when the pair now fits in half a chunk. One merge
	// restores the pair invariant on both sides, because the merged chunk is
	// no shorter than either part.
	lo, hi := ci, ci
	var merged []listEntry[V]
	switch {
	case left == 0:
	case ci > 0 && len(l.dir[ci-1].ents)+left <= listChunkCap/2:
		lo = ci - 1
		prev := l.dir[lo].ents
		merged = without(append(make([]listEntry[V], 0, len(prev)+left), prev...), cur, i)
	case ci+1 < len(l.dir) && left+len(l.dir[ci+1].ents) <= listChunkCap/2:
		hi = ci + 1
		next := l.dir[hi].ents
		merged = append(without(make([]listEntry[V], 0, left+len(next)), cur, i), next...)
	default:
		// The directory keeps its shape. A chunk this list owns shifts in
		// place; a shared one is copied without the entry.
		l.ownDir()
		c := &l.dir[ci]
		if c.owner == l.owner {
			copy(cur[i:], cur[i+1:])
			cur[left] = listEntry[V]{}
			c.ents = cur[:left]
		} else {
			*c = listChunk[V]{ents: without(make([]listEntry[V], 0, l.copyCap(ci, left)), cur, i), owner: l.owner}
		}
		return true
	}
	// The directory changes shape: it is replaced, and a merged chunk is a
	// fresh array, so whoever still holds the old directory (a clone, a
	// Range in progress) sees it exactly as it was.
	dir := append(make([]listChunk[V], 0, len(l.dir)-1), l.dir[:lo]...)
	if merged != nil {
		dir = append(dir, listChunk[V]{ents: merged, owner: l.owner})
	}
	l.dir, l.sharedDir = append(dir, l.dir[hi+1:]...), false
	return true
}

// clone returns an independent list sharing the directory and every chunk
// with the receiver; both sides take fresh owner tokens, so each copies the
// directory and the chunks it later writes.
//
//relvet:role=clone
func (l *list[V]) clone() list[V] {
	l.owner = new(listOwner)
	l.sharedDir = true
	c := *l
	c.owner = new(listOwner)
	return c
}

// rangeForward visits entries oldest-first. The callback may delete the
// entry being visited, which moves every later entry (a shift within the
// chunk, a merge, a dropped chunk): a change in Len says so, and the walk
// finds its place again in the live directory by counting — the deleted
// entry's successor has the ordinal the deleted entry had.
func (l *list[V]) rangeForward(f func(k relation.Tuple, v V) bool) {
	dir, n := l.dir, l.n
	for ci, i, pos := 0, 0, 0; ci < len(dir); {
		ents := dir[ci].ents
		if i >= len(ents) {
			ci, i = ci+1, 0
			continue
		}
		if !f(ents[i].key, ents[i].val) {
			return
		}
		if l.n == n {
			i, pos = i+1, pos+1
			continue
		}
		if l.n > n { // an insert: the visited entry is still ahead of its successor
			pos++
		}
		dir, n = l.dir, l.n
		for ci, i = 0, pos; ci < len(dir) && i >= len(dir[ci].ents); ci++ {
			i -= len(dir[ci].ents)
		}
	}
}

// rangeBackward visits entries newest-first on the directory it started
// with. Deleting the visited entry only moves entries already visited, and
// Delete never reshapes a directory in place.
func (l *list[V]) rangeBackward(f func(k relation.Tuple, v V) bool) {
	dir := l.dir
	for ci := len(dir) - 1; ci >= 0; ci-- {
		for i := len(dir[ci].ents) - 1; i >= 0; i-- {
			if e := &dir[ci].ents[i]; !f(e.key, e.val) {
				return
			}
		}
	}
}

// checkInvariant verifies the directory invariants; used by tests.
func (l *list[V]) checkInvariant() bool {
	n := 0
	for ci, c := range l.dir {
		if len(c.ents) == 0 || len(c.ents) > listChunkCap {
			return false
		}
		if ci > 0 && len(l.dir[ci-1].ents)+len(c.ents) <= listChunkCap/2 {
			return false
		}
		n += len(c.ents)
	}
	return n == l.n && len(l.dir) <= 4*l.n/listChunkCap+2
}

// DList is the doubly-linked-list role of the paper's library (the container
// every process of a state hangs off in Figure 2): an unordered list that
// iterates in insertion order. Lookup and delete-by-key are O(n), insertion
// is O(1), and Clone is O(1) — see list for the chunked copy-on-write body.
type DList[V any] struct{ list[V] }

// NewDList returns an empty list iterating in insertion order.
func NewDList[V any]() *DList[V] { return &DList[V]{} }

// Kind returns DListKind.
func (l *DList[V]) Kind() Kind { return DListKind }

// Clone returns an independent list sharing every chunk with the receiver.
//
//relvet:role=clone
func (l *DList[V]) Clone() Map[V] { return &DList[V]{l.list.clone()} }

// Range visits entries in insertion order. The callback may delete the
// entry it is visiting.
func (l *DList[V]) Range(f func(k relation.Tuple, v V) bool) { l.rangeForward(f) }

// SList is the singly-linked-list role: the same body as DList, iterated
// from the most recently inserted entry to the least, as a list with head
// insertion would.
type SList[V any] struct{ list[V] }

// NewSList returns an empty list iterating newest-first.
func NewSList[V any]() *SList[V] { return &SList[V]{} }

// Kind returns SListKind.
func (l *SList[V]) Kind() Kind { return SListKind }

// Clone returns an independent list sharing every chunk with the receiver.
//
//relvet:role=clone
func (l *SList[V]) Clone() Map[V] { return &SList[V]{l.list.clone()} }

// Range visits entries from most recently inserted to least. The callback
// may delete the entry it is visiting.
func (l *SList[V]) Range(f func(k relation.Tuple, v V) bool) { l.rangeBackward(f) }
