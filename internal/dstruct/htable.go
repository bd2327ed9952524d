package dstruct

import (
	"slices"

	"repro/internal/colblock"
)

// HTable is a separately-chained hash table over a word mix of the key's
// codes (colblock.Hash). It doubles when the load factor reaches 1, so Get,
// Put, and Delete are expected O(1). A node holds its key's words, not a
// hash of them: rehashing a word on the rare doubling is cheaper than
// carrying eight more bytes per entry. Bucket b is slot b%htChunk of chunk
// b/htChunk of a directory of chunks.
type HTable[V any] struct {
	dir   []htDir[V]
	n     int
	arity int32

	// Copy-on-write state. After Clone the directory, every chunk and every
	// chain are shared between both tables (shared). The first write copies
	// the directory with every own and mine flag clear; a chunk is copied the
	// first time one of its slots changes, and a chain is copied, whole, the
	// first time a write would change one of its nodes. A table never
	// cloned, or regrown since, owns every chunk and chain and writes in
	// place at no extra cost.
	shared bool
}

// htChunk is the number of buckets per chunk. It trades the two copies a
// version's first write pays: the directory (one 16-byte entry per chunk)
// against the one chunk the write lands in (htChunk slot pointers).
const htChunk = 16

// htDir is a directory entry: a chunk of bucket slots, whether this table
// may write them (own), and the slots whose chains it owns (mine, a bit each).
type htDir[V any] struct {
	c    *[htChunk]*htNode[V]
	own  bool
	mine uint16
}

type htNode[V any] struct {
	key  nodeKey
	val  V
	next *htNode[V]
}

const htInitialBuckets = htChunk

// NewHTable returns an empty hash table for keys of arity words.
func NewHTable[V any](arity int) *HTable[V] {
	return &HTable[V]{dir: newHTDir[V](htInitialBuckets / htChunk), arity: int32(arity)}
}

// newHTDir returns n empty owned chunks, each its own object: chunks cut
// from one block would keep all of it alive after a clone copied the rest.
func newHTDir[V any](n int) []htDir[V] {
	dir := make([]htDir[V], n)
	for i := range dir {
		dir[i] = htDir[V]{c: new([htChunk]*htNode[V]), own: true, mine: 1<<htChunk - 1}
	}
	return dir
}

// Kind returns HTableKind.
func (h *HTable[V]) Kind() Kind { return HTableKind }

// Arity returns the number of words per key.
func (h *HTable[V]) Arity() int { return int(h.arity) }

// Len returns the number of entries.
func (h *HTable[V]) Len() int { return h.n }

func (h *HTable[V]) bucket(hash uint64) uint {
	return uint(hash) & uint(len(h.dir)*htChunk-1)
}

// head returns bucket b's chain.
func (h *HTable[V]) head(b uint) *htNode[V] { return h.dir[b/htChunk].c[b%htChunk] }

// Get returns the value for k.
func (h *HTable[V]) Get(_ colblock.View, k []colblock.Code) (V, bool) {
	for n := h.head(h.bucket(colblock.Hash(k))); n != nil; n = n.next {
		if n.key.eq(k) {
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Get1 is the single-column-key point lookup: one word hashed, one word
// compared per chain node.
func (h *HTable[V]) Get1(_ colblock.View, k colblock.Code) (V, bool) {
	for n := h.head(h.bucket(colblock.Hash1(k))); n != nil; n = n.next {
		if n.key.k0 == k {
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// ownSlot makes bucket b's slot writable, copying the directory if a clone
// still shares it and the chunk if this table does not own it yet, and
// returns the slot's directory entry.
func (h *HTable[V]) ownSlot(b uint) *htDir[V] {
	if h.shared {
		dir := make([]htDir[V], len(h.dir))
		for i, d := range h.dir {
			dir[i].c = d.c
		}
		h.dir, h.shared = dir, false
	}
	d := &h.dir[b/htChunk]
	if !d.own {
		c := *d.c
		d.c, d.own = &c, true
	}
	return d
}

// ownBucket makes bucket b's slot and every node of its chain mutable by
// this table — a chain still shared is copied — and returns the slot.
// Chains average a single node (the table doubles at load factor 1), so
// this copies O(1) nodes in expectation.
func (h *HTable[V]) ownBucket(b uint) **htNode[V] {
	d := h.ownSlot(b)
	if bit := uint16(1) << (b % htChunk); d.mine&bit == 0 {
		for p := &d.c[b%htChunk]; *p != nil; p = &(*p).next {
			c := **p
			*p = &c
		}
		d.mine |= bit
	}
	return &d.c[b%htChunk]
}

// Put inserts or replaces the value for k.
func (h *HTable[V]) Put(_ colblock.View, k []colblock.Code, v V) {
	b := h.bucket(colblock.Hash(k))
	for n := h.head(b); n != nil; n = n.next {
		if n.key.eq(k) {
			for m := *h.ownBucket(b); ; m = m.next { // the copy holds k too
				if m.key.eq(k) {
					m.val = v
					return
				}
			}
		}
	}
	if h.n >= len(h.dir)*htChunk {
		h.grow()
		b = h.bucket(colblock.Hash(k))
	}
	// Linking in front changes no node of the chain, shared or not.
	p := &h.ownSlot(b).c[b%htChunk]
	*p = &htNode[V]{key: makeNodeKey(k), val: v, next: *p}
	h.n++
}

// grow doubles the buckets into fresh chunks. Relinking mutates next
// pointers, so the nodes of a chain this table does not own are copied as
// they move over; afterwards every chunk and chain is the table's. A
// directory still shared with a clone is read, never copied.
func (h *HTable[V]) grow() {
	old := h.dir
	h.dir = newHTDir[V](2 * len(old))
	for _, d := range old {
		for s, n := range d.c {
			mine := !h.shared && d.mine&(1<<s) != 0
			for n != nil {
				next := n.next
				m := n
				if !mine {
					c := *n
					m = &c
				}
				b := h.bucket(m.key.hash())
				p := &h.dir[b/htChunk].c[b%htChunk]
				m.next, *p = *p, m
				n = next
			}
		}
	}
	h.shared = false
}

// Delete removes k.
func (h *HTable[V]) Delete(_ colblock.View, k []colblock.Code) (V, bool) {
	b := h.bucket(colblock.Hash(k))
	n := h.head(b)
	for n != nil && !n.key.eq(k) {
		n = n.next
	}
	if n == nil {
		var zero V
		return zero, false
	}
	// Unlinking the head changes no node; unlinking a later one changes the
	// node in front of it, so the chain is copied first.
	p := &h.ownSlot(b).c[b%htChunk]
	if *p != n {
		p = h.ownBucket(b)
	}
	for !(*p).key.eq(k) {
		p = &(*p).next
	}
	n = *p
	*p = n.next
	h.n--
	return n.val, true
}

// Clone returns an independent table sharing the directory, every chunk and
// every chain node with the receiver; both sides copy what they later write.
//
//relvet:role=clone
func (h *HTable[V]) Clone() Words[V] {
	h.shared = true
	c := *h
	return &c
}

// Range visits entries in bucket order. Entries may be deleted during
// iteration; entries inserted during iteration may or may not be visited.
func (h *HTable[V]) Range(f func(k []colblock.Code, v V) bool) {
	kb := make([]colblock.Code, 0, h.arity)
	for _, d := range h.dir {
		for _, head := range d.c {
			for n := head; n != nil; {
				next := n.next
				if !f(n.key.appendTo(kb[:0]), n.val) {
					return
				}
				n = next
			}
		}
	}
}

// AppendEntries appends entries in bucket order (Range order).
func (h *HTable[V]) AppendEntries(ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	ks, vs = slices.Grow(ks, h.n*int(h.arity)), slices.Grow(vs, h.n)
	for _, d := range h.dir {
		for _, head := range d.c {
			for n := head; n != nil; n = n.next {
				ks = n.key.appendTo(ks)
				vs = append(vs, n.val)
			}
		}
	}
	return ks, vs
}

// Footprint counts chain nodes as entries and the header, directory and
// chunks as overhead.
func (h *HTable[V]) Footprint() Footprint {
	fp := Footprint{
		Entries:  h.n * AllocSize(sizeOf[htNode[V]]()),
		Overhead: AllocSize(sizeOf[HTable[V]]()) + AllocSize(cap(h.dir)*sizeOf[htDir[V]]()) + len(h.dir)*AllocSize(htChunk*wordBytes),
	}
	if h.arity > 1 {
		for _, d := range h.dir {
			for _, head := range d.c {
				for n := head; n != nil; n = n.next {
					fp.Entries += n.key.bytes()
				}
			}
		}
	}
	return fp
}
