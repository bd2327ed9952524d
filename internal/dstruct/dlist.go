package dstruct

import (
	"slices"

	"repro/internal/colblock"
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
// with a directory of chunk headers over them. A chunk holds its keys
// strided — arity words per entry, back to back in one pointer-free array —
// beside the array of values, so lookup and delete-by-key are a scan over
// dense words; insertion appends to the last chunk.
//
// Copy-on-write state has HTable's shape, a shared directory over chunks
// that each side copies the first time it writes them, with an owner token
// per chunk where HTable keeps a flag in the directory entry. A chunk is
// writable in place iff its owner token is the list's; Clone hands both
// sides fresh tokens and marks the directory shared, so the first write of
// either side copies the directory plus the one chunk it changes and leaves
// every other chunk shared. Before any Clone all tokens are nil, nil == nil, and writes
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
	arity     int32
	sharedDir bool // dir's backing array is shared with a Clone
}

type listOwner struct{ _ byte }

// listChunk is a directory slot: len(vals) entries, entry i's key in
// keys[i*arity:(i+1)*arity]. Chunks live in the directory by value: the
// lists a graph decomposition builds average under four entries, and a
// pointer hop per chunk costs those more than the wider directory copy costs
// long lists.
type listChunk[V any] struct {
	keys  []colblock.Code
	vals  []V
	owner *listOwner
}

// Arity returns the number of words per key.
func (l *list[V]) Arity() int { return int(l.arity) }

// Len returns the number of entries.
func (l *list[V]) Len() int { return l.n }

// find returns the chunk and offset of k's entry, or -1.
func (l *list[V]) find(k []colblock.Code) (int, int) {
	if l.arity == 1 {
		return l.find1(k[0])
	}
	a := int(l.arity)
	k0, rest := k[0], k[1:]
	for ci := range l.dir {
		keys := l.dir[ci].keys
		for off := 0; off < len(keys); off += a {
			if keys[off] == k0 && slices.Equal(keys[off+1:off+a], rest) {
				return ci, off / a
			}
		}
	}
	return -1, -1
}

func (l *list[V]) find1(k colblock.Code) (int, int) {
	for ci := range l.dir {
		for i, c := range l.dir[ci].keys {
			if c == k {
				return ci, i
			}
		}
	}
	return -1, -1
}

// Get returns the value for k.
func (l *list[V]) Get(_ colblock.View, k []colblock.Code) (V, bool) {
	if ci, i := l.find(k); ci >= 0 {
		return l.dir[ci].vals[i], true
	}
	var zero V
	return zero, false
}

// Get1 is the single-column-key point lookup: a linear scan over the key
// words.
func (l *list[V]) Get1(_ colblock.View, k colblock.Code) (V, bool) {
	if ci, i := l.find1(k); ci >= 0 {
		return l.dir[ci].vals[i], true
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

// newChunk returns an empty chunk this list owns with room for c entries.
func (l *list[V]) newChunk(c int) listChunk[V] {
	return listChunk[V]{keys: make([]colblock.Code, 0, c*int(l.arity)), vals: make([]V, 0, c), owner: l.owner}
}

// add appends the entries [from, to) of src to c.
func (c *listChunk[V]) add(src *listChunk[V], from, to, arity int) {
	c.keys = append(c.keys, src.keys[from*arity:to*arity]...)
	c.vals = append(c.vals, src.vals[from:to]...)
}

// ownChunk makes chunk ci writable in place, copying it if this list does
// not own it, and returns it.
func (l *list[V]) ownChunk(ci int) *listChunk[V] {
	l.ownDir()
	c := &l.dir[ci]
	if c.owner != l.owner {
		n := len(c.vals)
		cp := l.newChunk(l.copyCap(ci, n))
		cp.add(c, 0, n, int(l.arity))
		*c = cp
	}
	return c
}

// Put inserts or replaces the value for k; a new key goes after every
// existing entry, a replaced one keeps its position.
func (l *list[V]) Put(_ colblock.View, k []colblock.Code, v V) {
	if ci, i := l.find(k); ci >= 0 {
		l.ownChunk(ci).vals[i] = v
		return
	}
	l.n++
	last := len(l.dir) - 1
	if last < 0 || len(l.dir[last].vals) == listChunkCap {
		c := listChunkCap
		if last < 0 {
			c = listFirstCap
		}
		l.ownDir()
		nc := l.newChunk(c)
		nc.keys, nc.vals = append(nc.keys, k...), append(nc.vals, v)
		l.dir = append(l.dir, nc)
		return
	}
	c := l.ownChunk(last)
	if n := len(c.vals); n == cap(c.vals) {
		grown := l.newChunk(min(2*n, listChunkCap))
		grown.add(c, 0, n, int(l.arity))
		*c = grown
	}
	c.keys, c.vals = append(c.keys, k...), append(c.vals, v)
}

// Delete removes k by scanning for it.
func (l *list[V]) Delete(_ colblock.View, k []colblock.Code) (V, bool) {
	ci, i := l.find(k)
	if ci < 0 {
		var zero V
		return zero, false
	}
	a := int(l.arity)
	l.n--
	cur := &l.dir[ci]
	val := cur.vals[i]
	left := len(cur.vals) - 1
	// Chunks [lo, hi] are rewritten as one (or none, when ci empties): ci
	// and a neighbour when the pair now fits in half a chunk. One merge
	// restores the pair invariant on both sides, because the merged chunk is
	// no shorter than either part.
	lo, hi := ci, ci
	var merged *listChunk[V]
	switch {
	case left == 0:
	case ci > 0 && len(l.dir[ci-1].vals)+left <= listChunkCap/2:
		lo = ci - 1
		prev := &l.dir[lo]
		m := l.newChunk(len(prev.vals) + left)
		m.add(prev, 0, len(prev.vals), a)
		m.add(cur, 0, i, a)
		m.add(cur, i+1, left+1, a)
		merged = &m
	case ci+1 < len(l.dir) && left+len(l.dir[ci+1].vals) <= listChunkCap/2:
		hi = ci + 1
		next := &l.dir[hi]
		m := l.newChunk(left + len(next.vals))
		m.add(cur, 0, i, a)
		m.add(cur, i+1, left+1, a)
		m.add(next, 0, len(next.vals), a)
		merged = &m
	default:
		// The directory keeps its shape. A chunk this list owns shifts in
		// place; a shared one is copied without the entry.
		l.ownDir()
		c := &l.dir[ci]
		if c.owner == l.owner {
			c.keys = slices.Delete(c.keys, i*a, (i+1)*a)
			c.vals = slices.Delete(c.vals, i, i+1)
		} else {
			cp := l.newChunk(l.copyCap(ci, left))
			cp.add(c, 0, i, a)
			cp.add(c, i+1, left+1, a)
			*c = cp
		}
		return val, true
	}
	// The directory changes shape: it is replaced, and a merged chunk is a
	// fresh pair of arrays, so whoever still holds the old directory (a
	// clone, a Range in progress) sees it exactly as it was.
	dir := append(make([]listChunk[V], 0, len(l.dir)-1), l.dir[:lo]...)
	if merged != nil {
		dir = append(dir, *merged)
	}
	l.dir, l.sharedDir = append(dir, l.dir[hi+1:]...), false
	return val, true
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
func (l *list[V]) rangeForward(f func(k []colblock.Code, v V) bool) {
	a := int(l.arity)
	dir, n := l.dir, l.n
	for ci, i, pos := 0, 0, 0; ci < len(dir); {
		c := &dir[ci]
		if i >= len(c.vals) {
			ci, i = ci+1, 0
			continue
		}
		if !f(c.keys[i*a:(i+1)*a:(i+1)*a], c.vals[i]) {
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
		for ci, i = 0, pos; ci < len(dir) && i >= len(dir[ci].vals); ci++ {
			i -= len(dir[ci].vals)
		}
	}
}

// rangeBackward visits entries newest-first on the directory it started
// with. Deleting the visited entry only moves entries already visited, and
// Delete never reshapes a directory in place.
func (l *list[V]) rangeBackward(f func(k []colblock.Code, v V) bool) {
	a := int(l.arity)
	dir := l.dir
	for ci := len(dir) - 1; ci >= 0; ci-- {
		c := &dir[ci]
		for i := len(c.vals) - 1; i >= 0; i-- {
			if !f(c.keys[i*a:(i+1)*a:(i+1)*a], c.vals[i]) {
				return
			}
		}
	}
}

// checkInvariant verifies the directory invariants; used by tests.
func (l *list[V]) checkInvariant() bool {
	n := 0
	for ci, c := range l.dir {
		if len(c.vals) == 0 || len(c.vals) > listChunkCap || len(c.keys) != len(c.vals)*int(l.arity) {
			return false
		}
		if ci > 0 && len(l.dir[ci-1].vals)+len(c.vals) <= listChunkCap/2 {
			return false
		}
		n += len(c.vals)
	}
	return n == l.n && len(l.dir) <= 4*l.n/listChunkCap+2
}

// Footprint counts the chunks' key and value arrays as entries and the
// header and chunk directory as overhead.
func (l *list[V]) Footprint() Footprint {
	fp := Footprint{Overhead: AllocSize(sizeOf[list[V]]()) + AllocSize(cap(l.dir)*sizeOf[listChunk[V]]())}
	for i := range l.dir {
		fp.Entries += codesBytes(l.dir[i].keys) + AllocSize(cap(l.dir[i].vals)*sizeOf[V]())
	}
	return fp
}

// DList is the doubly-linked-list role of the paper's library (the container
// every process of a state hangs off in Figure 2): an unordered list that
// iterates in insertion order. Lookup and delete-by-key are O(n), insertion
// is O(1), and Clone is O(1) — see list for the chunked copy-on-write body.
type DList[V any] struct{ list[V] }

// NewDList returns an empty list iterating in insertion order.
func NewDList[V any](arity int) *DList[V] { return &DList[V]{list[V]{arity: int32(arity)}} }

// Kind returns DListKind.
func (l *DList[V]) Kind() Kind { return DListKind }

// Clone returns an independent list sharing every chunk with the receiver.
//
//relvet:role=clone
func (l *DList[V]) Clone() Words[V] { return &DList[V]{l.list.clone()} }

// Range visits entries in insertion order. The callback may delete the
// entry it is visiting.
func (l *DList[V]) Range(f func(k []colblock.Code, v V) bool) { l.rangeForward(f) }

// AppendEntries appends entries in insertion order (Range order).
func (l *DList[V]) AppendEntries(ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	for ci := range l.dir {
		ks = append(ks, l.dir[ci].keys...)
		vs = append(vs, l.dir[ci].vals...)
	}
	return ks, vs
}

// SList is the singly-linked-list role: the same body as DList, iterated
// from the most recently inserted entry to the least, as a list with head
// insertion would.
type SList[V any] struct{ list[V] }

// NewSList returns an empty list iterating newest-first.
func NewSList[V any](arity int) *SList[V] { return &SList[V]{list[V]{arity: int32(arity)}} }

// Kind returns SListKind.
func (l *SList[V]) Kind() Kind { return SListKind }

// Clone returns an independent list sharing every chunk with the receiver.
//
//relvet:role=clone
func (l *SList[V]) Clone() Words[V] { return &SList[V]{l.list.clone()} }

// Range visits entries from most recently inserted to least. The callback
// may delete the entry it is visiting.
func (l *SList[V]) Range(f func(k []colblock.Code, v V) bool) { l.rangeBackward(f) }

// AppendEntries appends entries newest-first (Range order).
func (l *SList[V]) AppendEntries(ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	a := int(l.arity)
	for ci := len(l.dir) - 1; ci >= 0; ci-- {
		c := &l.dir[ci]
		for i := len(c.vals) - 1; i >= 0; i-- {
			ks = append(ks, c.keys[i*a:(i+1)*a]...)
			vs = append(vs, c.vals[i])
		}
	}
	return ks, vs
}
