package dstruct

import (
	"slices"

	"repro/internal/colblock"
)

// listSmall is how many key words a list holds in its header before it has
// a block directory: four entries at arity one, two at arity two, one at
// arity three or four, none above. The lists a graph decomposition hangs off
// every node hold one to four entries, and four words make such a list one
// 112-byte object; eight would make the header 176 bytes.
const listSmall = 4

// list is the body DList and SList share: an unordered sequence of key/value
// entries kept in insertion order. A small list (dir == nil) holds at most
// listSmall/arity entries in its header, keys strided in sk (arity words an
// entry, back to back), values in sv. The Put that overflows them promotes
// the list: its entries move into a first block and sv is cleared, so the
// header pins no value. Past that, entries sit packed in the hash table's
// blocks, in insertion order, under the same directory and ownership rule
// (see blocks): lookup and delete-by-key scan each block's first key words,
// and insertion appends to the last block. Delete never demotes a list in
// place; a Clone demotes its copy (see clone).
//
// A small list shares nothing: Clone copies it with the header. A chunked
// list's Clone is blocks.fork, so the first write of either side copies the
// directory, 8 bytes a block, and the one block it changes.
//
// Directory invariants (checkInvariant): no block is empty, and every
// adjacent pair of blocks holds more than blockSlots/2 entries together —
// Delete merges a pair that no longer does — so the directory is never
// longer than 4·n/blockSlots + 2 however the list is churned. A directory
// that changes shape is replaced, never shifted in place, whether or not a
// Clone shares it: a Range in progress may keep the one it started on. A
// directory emptied by Delete is an empty slice, never nil: the list stays
// chunked.
type list[V any] struct {
	blocks[V]
	n int

	sk [listSmall]colblock.Code
	sv [listSmall]V
}

// Len returns the number of entries.
func (l *list[V]) Len() int { return l.n }

// findSmall returns the ordinal of k's entry in a small list, or -1.
func (l *list[V]) findSmall(k []colblock.Code) int {
	a := len(k)
	if a == 1 {
		return slices.Index(l.sk[:l.n], k[0])
	}
	for i := range l.n {
		if slices.Equal(l.sk[i*a:i*a+a], k) {
			return i
		}
	}
	return -1
}

// find returns the block and slot of k's entry in a chunked list, or -1. It
// scans each block's first key words and compares the rest of a key only
// where the first word matches, inline. A two-word key, the scheduler's
// {ns, pid}, is both words at once: one branch an entry, which a first word
// shared by many entries does not mispredict.
func (l *list[V]) find(k []colblock.Code) (int, int) {
	k0, r := k[0], len(k)-1
	switch r {
	case 0:
		return l.find1(k0)
	case 1:
		for bi, b := range l.dir {
			rest := b.restWords(1)
			for s, w := range b.k[:b.count()] {
				if (w^k0)|(rest[s]^k[1]) == 0 {
					return bi, s
				}
			}
		}
	default:
		for bi, b := range l.dir {
			for s, w := range b.k[:b.count()] {
				if w == k0 && b.keyEq(s, k) {
					return bi, s
				}
			}
		}
	}
	return -1, -1
}

func (l *list[V]) find1(k colblock.Code) (int, int) {
	for bi, b := range l.dir {
		if s := slices.Index(b.k[:b.count()], k); s >= 0 {
			return bi, s
		}
	}
	return -1, -1
}

// Get returns the value for k.
func (l *list[V]) Get(_ colblock.View, k []colblock.Code) (V, bool) {
	if l.dir == nil {
		if i := l.findSmall(k); i >= 0 {
			return l.sv[i], true
		}
	} else if bi, s := l.find(k); bi >= 0 {
		return l.dir[bi].v[s], true
	}
	var zero V
	return zero, false
}

// Get1 is the single-column-key point lookup: a linear scan over the key
// words.
func (l *list[V]) Get1(_ colblock.View, k colblock.Code) (V, bool) {
	if l.dir == nil {
		if i := slices.Index(l.sk[:l.n], k); i >= 0 {
			return l.sv[i], true
		}
	} else if bi, s := l.find1(k); bi >= 0 {
		return l.dir[bi].v[s], true
	}
	var zero V
	return zero, false
}

// own is blocks.own with a forked directory copied with room for the block
// a later Put of the same version may append.
func (l *list[V]) own(i int) *block[V] {
	l.ownDir(1)
	return l.blocks.own(i)
}

// Put inserts or replaces the value for k; a new key goes after every
// existing entry, a replaced one keeps its position.
func (l *list[V]) Put(_ colblock.View, k []colblock.Code, v V) {
	if l.dir == nil {
		if i := l.findSmall(k); i >= 0 {
			l.sv[i] = v
			return
		}
		if a := int(l.arity); (l.n+1)*a <= listSmall {
			copy(l.sk[l.n*a:], k)
			l.sv[l.n] = v
			l.n++
			return
		}
		l.promote()
	} else if bi, s := l.find(k); bi >= 0 {
		l.own(bi).v[s] = v
		return
	}
	l.n++
	last := len(l.dir) - 1
	if last < 0 || l.dir[last].count() == blockSlots {
		l.ownDir(1)
		l.dir = append(l.dir, l.newBlock(0))
		last++
	}
	b := l.own(last)
	b.set(b.count(), k, v)
	b.ctrl[0]++
}

// promote moves a small list's entries into a first block and clears sv, so
// the header pins no value the list no longer holds there.
func (l *list[V]) promote() {
	b := l.newBlock(0)
	for i := range l.n {
		k, v := l.entry(i)
		b.set(i, k, v)
	}
	b.ctrl[0] = uint64(l.n)
	l.sv = [listSmall]V{}
	l.dir = []*block[V]{b}
}

// Delete removes k by scanning for it. A small list closes the gap in its
// header.
func (l *list[V]) Delete(_ colblock.View, k []colblock.Code) (V, bool) {
	var zero V
	if l.dir == nil {
		i := l.findSmall(k)
		if i < 0 {
			return zero, false
		}
		a, val := int(l.arity), l.sv[i]
		copy(l.sk[i*a:], l.sk[(i+1)*a:l.n*a])
		copy(l.sv[i:], l.sv[i+1:l.n])
		l.n--
		l.sv[l.n] = zero
		return val, true
	}
	bi, s := l.find(k)
	if bi < 0 {
		return zero, false
	}
	r := int(l.arity) - 1
	l.n--
	val, left := l.dir[bi].v[s], l.dir[bi].count()-1
	// Blocks [lo, hi] are rewritten as one (or none, when bi empties): bi
	// and a neighbour when the pair now fits in half a block. One merge
	// restores the pair invariant on both sides, because the merged block is
	// no shorter than either part.
	lo, hi := bi, bi
	switch {
	case left == 0:
	case bi > 0 && l.dir[bi-1].count()+left <= blockSlots/2:
		lo--
	case bi+1 < len(l.dir) && left+l.dir[bi+1].count() <= blockSlots/2:
		hi++
	default:
		// The directory keeps its shape; the block, copied if it is shared,
		// moves its later entries down.
		l.own(bi).cut(s, r)
		return val, true
	}
	// The directory changes shape: it is replaced, and a merged block is a
	// fresh one, so whoever still holds the old directory (a clone, a Range
	// in progress) sees it exactly as it was. make never returns nil, so a
	// list emptied here stays chunked.
	dir := append(make([]*block[V], 0, len(l.dir)-1), l.dir[:lo]...)
	if lo < hi {
		m := l.newBlock(0)
		for _, b := range l.dir[lo : hi+1] {
			m.add(b, r)
		}
		m.cut(s+(bi-lo)*l.dir[lo].count(), r) // the deleted entry, now in m
		dir = append(dir, m)
	}
	l.dir, l.shared = append(dir, l.dir[hi+1:]...), false
	return val, true
}

// clone returns an independent list. A small list is copied with its
// header. A chunked list that fits in a header is copied into a small one,
// the receiver untouched. Any longer list is forked: it shares the
// directory and every block with the receiver, and each side copies what it
// later writes.
//
//relvet:role=clone
func (l *list[V]) clone() list[V] {
	if l.dir == nil {
		return *l
	}
	if l.n*int(l.arity) <= listSmall {
		c := list[V]{blocks: blocks[V]{arity: l.arity}, n: l.n}
		l.AppendEntries(c.sk[:0], c.sv[:0]) // fills c's arrays: they have room
		return c
	}
	c := *l
	c.blocks = l.fork()
	return c
}

// entry returns the key words and value at ordinal i of a small list.
func (l *list[V]) entry(i int) ([]colblock.Code, V) {
	a := int(l.arity)
	return l.sk[i*a : (i+1)*a : (i+1)*a], l.sv[i]
}

// listAt returns the block and slot of the entry with ordinal pos in dir;
// past the last entry the block is len(dir).
func listAt[V any](dir []*block[V], pos int) (int, int) {
	bi := 0
	for bi < len(dir) && pos >= dir[bi].count() {
		pos -= dir[bi].count()
		bi++
	}
	return bi, pos
}

// rangeForward visits entries oldest-first. The callback may delete the
// entry being visited, which moves every later entry (a shift in the header
// or within the block, a merge, a dropped block): a change in Len says so,
// and the walk finds its place again by counting — the deleted entry's
// successor has the ordinal the deleted entry had. A small list is walked
// on its live header; an insert that promotes it moves the walk to the
// directory at the same ordinal.
func (l *list[V]) rangeForward(f func(k []colblock.Code, v V) bool) {
	pos := 0
	for l.dir == nil {
		if pos >= l.n {
			return
		}
		n := l.n
		if !f(l.entry(pos)) {
			return
		}
		if l.n >= n { // a delete moved the successor to pos
			pos++
		}
	}
	r, kb := int(l.arity)-1, []colblock.Code(nil)
	dir, n := l.dir, l.n
	for bi, s := listAt(dir, pos); bi < len(dir); {
		b := dir[bi]
		if s >= b.count() {
			bi, s = bi+1, 0
			continue
		}
		if !f(b.keyAt(s, r, &kb), b.v[s]) {
			return
		}
		if l.n == n {
			s, pos = s+1, pos+1
			continue
		}
		if l.n > n { // an insert: the visited entry is still ahead of its successor
			pos++
		}
		dir, n = l.dir, l.n
		bi, s = listAt(dir, pos)
	}
}

// rangeBackward visits entries newest-first. Deleting the visited entry
// only moves entries already visited, so a small list is walked down its
// live header, and a chunked one on the directory the walk reached it with:
// Delete never reshapes a directory in place. An insert that promotes a
// small list leaves every older entry at its ordinal, in the first block.
func (l *list[V]) rangeBackward(f func(k []colblock.Code, v V) bool) {
	pos := l.n - 1
	for ; l.dir == nil; pos-- {
		if pos < 0 {
			return
		}
		if !f(l.entry(pos)) {
			return
		}
	}
	if pos < 0 {
		return
	}
	r, kb := int(l.arity)-1, []colblock.Code(nil)
	dir := l.dir
	bi, s := listAt(dir, pos)
	for ; bi >= 0; bi-- {
		b := dir[bi]
		for ; s >= 0; s-- {
			if !f(b.keyAt(s, r, &kb), b.v[s]) {
				return
			}
		}
		if bi > 0 {
			s = dir[bi-1].count() - 1
		}
	}
}

// AppendEntries appends entries in insertion order, DList's Range order;
// SList has its own.
func (l *list[V]) AppendEntries(ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	if l.dir == nil {
		return append(ks, l.sk[:l.n*int(l.arity)]...), append(vs, l.sv[:l.n]...)
	}
	r := int(l.arity) - 1
	for _, b := range l.dir {
		n := b.count()
		if r == 0 {
			ks = append(ks, b.k[:n]...)
		} else {
			for s := range n {
				ks = b.appendKey(ks, s, r)
			}
		}
		vs = append(vs, b.v[:n]...)
	}
	return ks, vs
}

// checkInvariant verifies that a small list fits its header and that a
// chunked one keeps the directory invariants; used by tests.
func (l *list[V]) checkInvariant() bool {
	if l.dir == nil {
		return l.n >= 0 && l.n*int(l.arity) <= listSmall && l.epoch == 0 && !l.shared
	}
	n := 0
	for bi, b := range l.dir {
		if c := b.count(); c == 0 || c > blockSlots || b.ctrl[1] != 0 {
			return false
		}
		if bi > 0 && l.dir[bi-1].count()+b.count() <= blockSlots/2 {
			return false
		}
		n += b.count()
	}
	return n == l.n && len(l.dir) <= 4*l.n/blockSlots+2
}

// Footprint counts the header as overhead, except that a small list's
// inline arrays are its entries; a chunked list's entries are its blocks,
// and its directory is overhead too.
func (l *list[V]) Footprint() Footprint {
	fp := Footprint{Overhead: AllocSize(sizeOf[list[V]]())}
	if l.dir == nil {
		inline := listSmall * (wordBytes + sizeOf[V]())
		fp.Entries, fp.Overhead = inline, fp.Overhead-inline
		return fp
	}
	fp.Overhead += AllocSize(cap(l.dir) * wordBytes)
	fp.Entries = len(l.dir) * l.blockBytes()
	return fp
}

// DList is the doubly-linked-list role of the paper's library (the container
// every process of a state hangs off in Figure 2): an unordered list that
// iterates in insertion order. Lookup and delete-by-key are O(n), insertion
// is O(1), and Clone is O(1) — see list for the header a small list lives
// in and the chunked copy-on-write body of a longer one.
type DList[V any] struct{ list[V] }

// NewDList returns an empty list iterating in insertion order.
func NewDList[V any](arity int) *DList[V] {
	return &DList[V]{list[V]{blocks: blocks[V]{arity: int32(arity)}}}
}

// Kind returns DListKind.
func (l *DList[V]) Kind() Kind { return DListKind }

// Clone returns an independent list: a copy of a list that fits in a header,
// otherwise one sharing every block with the receiver.
//
//relvet:role=clone
func (l *DList[V]) Clone() Words[V] { return &DList[V]{l.list.clone()} }

// Range visits entries in insertion order. The callback may delete the
// entry it is visiting.
func (l *DList[V]) Range(f func(k []colblock.Code, v V) bool) { l.rangeForward(f) }

// SList is the singly-linked-list role: the same body as DList, iterated
// from the most recently inserted entry to the least, as a list with head
// insertion would.
type SList[V any] struct{ list[V] }

// NewSList returns an empty list iterating newest-first.
func NewSList[V any](arity int) *SList[V] {
	return &SList[V]{list[V]{blocks: blocks[V]{arity: int32(arity)}}}
}

// Kind returns SListKind.
func (l *SList[V]) Kind() Kind { return SListKind }

// Clone returns an independent list: a copy of a list that fits in a header,
// otherwise one sharing every block with the receiver.
//
//relvet:role=clone
func (l *SList[V]) Clone() Words[V] { return &SList[V]{l.list.clone()} }

// Range visits entries from most recently inserted to least. The callback
// may delete the entry it is visiting.
func (l *SList[V]) Range(f func(k []colblock.Code, v V) bool) { l.rangeBackward(f) }

// AppendEntries appends entries newest-first (Range order).
func (l *SList[V]) AppendEntries(ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	if l.dir == nil {
		for i := l.n - 1; i >= 0; i-- {
			k, v := l.entry(i)
			ks, vs = append(ks, k...), append(vs, v)
		}
		return ks, vs
	}
	r := int(l.arity) - 1
	for bi := len(l.dir) - 1; bi >= 0; bi-- {
		b := l.dir[bi]
		for s := b.count() - 1; s >= 0; s-- {
			ks, vs = b.appendKey(ks, s, r), append(vs, b.v[s])
		}
	}
	return ks, vs
}
