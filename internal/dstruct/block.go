package dstruct

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/colblock"
)

// blockSlots is the number of entries a block holds: two control words of
// eight bytes each for a hash table. A chunked list uses the same blocks.
// Measured against 32-entry blocks, a clone plus the first delete and put
// on a 512-entry list allocates 976 B at 16 and 1,408 B at 32; 32 wins only
// past a few thousand entries (2,992 against 2,416 B at 4,096).
const blockSlots = 16

// A block is the storage and copy-on-write unit under hash tables and
// chunked lists: blockSlots entries, each key's first word in k and its
// value in v. A key of more than one word keeps the rest in one array beside
// them, r = arity-1 words a slot, slot s's at r*s; rest points at its first
// word, so a block copy is one object, two for a wider key. The epoch that
// stamped the block says who may write it (see blocks). A hash table keeps
// its slots' control bytes in ctrl (see HTable); a list keeps its entries
// packed in slots [0, ctrl[0]).
type block[V any] struct {
	ctrl  [2]uint64
	epoch uint64
	k     [blockSlots]colblock.Code
	v     [blockSlots]V
	rest  *colblock.Code
}

// blocks is a directory of blocks and its copy-on-write state, the one
// ownership rule under HTable and the chunked list. After a fork both sides
// share the directory and every block, and each takes a fresh epoch. The
// first write copies the directory, 8 bytes a block; a block is copied the
// first time it changes and the copy is stamped with the writer's epoch, so
// a block whose epoch is the container's is the container's own. A
// container never forked owns every block and writes in place at no extra
// cost. Readers never look at an epoch or the flag, so a frozen version may
// be read while it is being forked.
type blocks[V any] struct {
	dir    []*block[V]
	epoch  uint64
	arity  int32
	shared bool // dir's backing array is shared with a fork
}

// epochs hands out the epochs fork stamps containers with. A new
// container's epoch is 0: it shares no block with any container until it is
// forked.
var epochs atomic.Uint64

// Arity returns the number of words per key.
func (d *blocks[V]) Arity() int { return int(d.arity) }

// newBlock returns an empty block of the container's own, both control
// words set to ctrl. Each block is its own object: blocks cut from one
// allocation would keep all of it alive after a fork copied the rest.
func (d *blocks[V]) newBlock(ctrl uint64) *block[V] {
	b := &block[V]{ctrl: [2]uint64{ctrl, ctrl}, epoch: d.epoch}
	if d.arity > 1 {
		b.rest = unsafe.SliceData(make([]colblock.Code, blockSlots*int(d.arity-1)))
	}
	return b
}

// blockBytes is the heap one block holds, its trailing key words included.
func (d *blocks[V]) blockBytes() int {
	n := AllocSize(sizeOf[block[V]]())
	if d.arity > 1 {
		n += AllocSize(blockSlots * int(d.arity-1) * wordBytes)
	}
	return n
}

// ownDir makes the directory writable, copying it with room for spare more
// blocks if a fork still shares it.
func (d *blocks[V]) ownDir(spare int) {
	if d.shared {
		d.dir, d.shared = append(make([]*block[V], 0, len(d.dir)+spare), d.dir...), false
	}
}

// own makes block i writable, copying the directory if a fork still shares
// it and the block if another epoch stamped it, and returns it.
func (d *blocks[V]) own(i int) *block[V] {
	d.ownDir(0)
	b := d.dir[i]
	if b.epoch != d.epoch {
		c := *b
		c.epoch = d.epoch
		if r := int(d.arity - 1); r > 0 {
			c.rest = unsafe.SliceData(slices.Clone(b.restWords(r)))
		}
		b = &c
		d.dir[i] = b
	}
	return b
}

// fork marks the directory shared and returns a copy of d over it; both
// sides take fresh epochs, so each copies what it later writes.
//
//relvet:role=clone
func (d *blocks[V]) fork() blocks[V] {
	e := epochs.Add(2)
	d.shared, d.epoch = true, e-1
	c := *d
	c.epoch = e
	return c
}

// restWords returns the trailing key words of every slot, r a slot.
func (b *block[V]) restWords(r int) []colblock.Code { return unsafe.Slice(b.rest, blockSlots*r) }

// restAt returns the r words after the first of slot s's key.
func (b *block[V]) restAt(s, r int) []colblock.Code { return b.restWords(r)[s*r : s*r+r] }

// keyEq reports whether slot s holds the key k: the first words compared,
// then the rest inline.
func (b *block[V]) keyEq(s int, k []colblock.Code) bool {
	if b.k[s] != k[0] {
		return false
	}
	r := len(k) - 1
	for i, w := range b.restAt(s, r) {
		if w != k[1+i] {
			return false
		}
	}
	return true
}

// set stores the key k and the value v in slot s.
func (b *block[V]) set(s int, k []colblock.Code, v V) {
	b.k[s], b.v[s] = k[0], v
	copy(b.restAt(s, len(k)-1), k[1:])
}

// appendKey appends slot s's key words to ks.
func (b *block[V]) appendKey(ks []colblock.Code, s, r int) []colblock.Code {
	return append(append(ks, b.k[s]), b.restAt(s, r)...)
}

// keyAt returns slot s's key for a Range callback: a slice of k at arity
// one, the words copied into *kb otherwise, which the first copy allocates
// and later ones reuse.
func (b *block[V]) keyAt(s, r int, kb *[]colblock.Code) []colblock.Code {
	if r == 0 {
		return b.k[s : s+1 : s+1]
	}
	*kb = b.appendKey((*kb)[:0], s, r)
	return *kb
}

// count is the number of entries a list block holds.
func (b *block[V]) count() int { return int(b.ctrl[0]) }

// add appends the entries of list block src to list block b.
func (b *block[V]) add(src *block[V], r int) {
	n, m := b.count(), src.count()
	copy(b.k[n:], src.k[:m])
	copy(b.v[n:], src.v[:m])
	copy(b.restWords(r)[n*r:], src.restWords(r)[:m*r])
	b.ctrl[0] += uint64(m)
}

// cut removes list block b's entry s, moving the later ones down, and clears
// the slot it frees so the block pins no value it no longer holds.
func (b *block[V]) cut(s, r int) {
	n := b.count()
	copy(b.k[s:], b.k[s+1:n])
	copy(b.v[s:], b.v[s+1:n])
	rest := b.restWords(r)
	copy(rest[s*r:], rest[(s+1)*r:n*r])
	var zero V
	b.v[n-1] = zero
	b.ctrl[0]--
}
