package dstruct

import (
	"math/bits"
	"slices"

	"repro/internal/colblock"
)

// HTable is an open-addressed hash table over a word mix of the key's codes
// (colblock.Hash), in groups of blockSlots slots. A key's hash picks its first
// group (the bits above the low seven) and a control byte tag (the low
// seven); a lookup probes groups in triangular order, compares the tag
// against a group's sixteen control bytes a word at a time and the key
// words only where a tag matches, and stops at the first group with an
// empty slot. Entries live in the groups themselves, so an insert
// allocates nothing until the table rehashes. At most 7/8 of the slots are
// in use, tombstones counted, so Get, Put and Delete are expected O(1).
//
// A group is a block (see blocks for the copy-on-write rule it follows):
// slot s's control byte is byte s%8 of ctrl[s/8], ctrlEmpty, ctrlDeleted (a
// tombstone), or the low seven bits of the hash of the key the slot holds.
// Clone is blocks.fork: the first write copies the directory, 8 bytes a
// group, and each group it changes. A table rehashed since its last Clone
// owns every group again.
type HTable[V any] struct {
	blocks[V]
	n    int32 // live entries
	used int32 // live entries plus tombstones
}

// Control bytes, and the per-byte constants of the word-at-a-time matches.
const (
	ctrlEmpty   = 0x80
	ctrlDeleted = 0xFE
	ctrlLSB     = 0x0101010101010101
	ctrlMSB     = 0x8080808080808080
)

// The match functions take a control word and return its matching slots as
// the high bit of their byte: bits.TrailingZeros64(m)/8 is the first one.
//
// matchH2 matches the full slots tagged h2. It may also report a full slot
// next to a real match (a borrow across bytes); the key comparison that
// follows every match rejects it.
func matchH2(w, h2 uint64) uint64 {
	v := w ^ ctrlLSB*h2
	return (v - ctrlLSB) &^ v & ctrlMSB
}

// matchEmpty matches the empty slots: the high bit set and bit 1, which a
// tombstone has, clear.
func matchEmpty(w uint64) uint64 { return w &^ (w << 6) & ctrlMSB }

// matchFree matches the empty slots and the tombstones.
func matchFree(w uint64) uint64 { return w & ctrlMSB }

// matchFull matches the slots that hold an entry.
func matchFull(w uint64) uint64 { return ^w & ctrlMSB }

// slotOf is the slot of control word w's first match in m.
func slotOf(w int, m uint64) int { return (w*8 + bits.TrailingZeros64(m)>>3) & (blockSlots - 1) }

// hasEmpty reports whether the group has an empty slot: where a probe stops.
func (g *block[V]) hasEmpty() bool { return matchEmpty(g.ctrl[0])|matchEmpty(g.ctrl[1]) != 0 }

// setCtrl sets slot s's control byte to c.
func (g *block[V]) setCtrl(s int, c uint64) {
	sh := uint(s%8) * 8
	g.ctrl[s/8] = g.ctrl[s/8]&^(0xFF<<sh) | c<<sh
}

// ctrlAt returns slot s's control byte.
func (g *block[V]) ctrlAt(s int) uint64 { return g.ctrl[s/8] >> (uint(s%8) * 8) & 0xFF }

// NewHTable returns an empty hash table for keys of arity words.
func NewHTable[V any](arity int) *HTable[V] {
	h := &HTable[V]{blocks: blocks[V]{arity: int32(arity)}}
	h.dir = []*block[V]{h.newBlock(ctrlMSB)}
	return h
}

// Kind returns HTableKind.
func (h *HTable[V]) Kind() Kind { return HTableKind }

// Len returns the number of entries.
func (h *HTable[V]) Len() int { return int(h.n) }

// find returns the group index and slot holding k, whose hash is hash, or
// a slot of -1.
func (h *HTable[V]) find(hash uint64, k []colblock.Code) (uint, int) {
	mask := uint(len(h.dir) - 1)
	gi := uint(hash>>7) & mask
	for i := uint(1); ; i++ {
		g := h.dir[gi]
		for w, c := range g.ctrl {
			for m := matchH2(c, hash&0x7F); m != 0; m &= m - 1 {
				if s := slotOf(w, m); g.keyEq(s, k) {
					return gi, s
				}
			}
		}
		if g.hasEmpty() {
			return 0, -1
		}
		gi = (gi + i) & mask
	}
}

// Get returns the value for k.
func (h *HTable[V]) Get(_ colblock.View, k []colblock.Code) (V, bool) {
	if gi, s := h.find(colblock.Hash(k), k); s >= 0 {
		return h.dir[gi].v[s], true
	}
	var zero V
	return zero, false
}

// Get1 is the single-column-key point lookup: one word hashed, one word
// compared per tag match.
func (h *HTable[V]) Get1(_ colblock.View, k colblock.Code) (V, bool) {
	hash := colblock.Hash1(k)
	mask := uint(len(h.dir) - 1)
	gi := uint(hash>>7) & mask
	for i := uint(1); ; i++ {
		g := h.dir[gi]
		for w, c := range g.ctrl {
			for m := matchH2(c, hash&0x7F); m != 0; m &= m - 1 {
				if s := slotOf(w, m); g.k[s] == k {
					return g.v[s], true
				}
			}
		}
		if g.hasEmpty() {
			break
		}
		gi = (gi + i) & mask
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value for k. One probe both looks for k and
// remembers the first free slot on the way, where an absent k goes.
func (h *HTable[V]) Put(_ colblock.View, k []colblock.Code, v V) {
	hash := colblock.Hash(k)
	mask := uint(len(h.dir) - 1)
	gi := uint(hash>>7) & mask
	fg, fs := uint(0), -1
	for i := uint(1); ; i++ {
		g := h.dir[gi]
		for w, c := range g.ctrl {
			for m := matchH2(c, hash&0x7F); m != 0; m &= m - 1 {
				if s := slotOf(w, m); g.keyEq(s, k) {
					h.own(int(gi)).v[s] = v
					return
				}
			}
			if m := matchFree(c); fs < 0 && m != 0 {
				fg, fs = gi, slotOf(w, m)
			}
		}
		if g.hasEmpty() {
			break
		}
		gi = (gi + i) & mask
	}
	if h.dir[fg].ctrlAt(fs) == ctrlEmpty { // a tombstone reused adds no load
		if int(h.used) >= len(h.dir)*blockSlots*7/8 {
			h.rehash()
			fg, fs = h.firstFree(hash)
		}
		h.used++
	}
	g := h.own(int(fg))
	g.setCtrl(fs, hash&0x7F)
	g.set(fs, k, v)
	h.n++
}

// firstFree returns the group index and slot of the first free slot on
// hash's probe sequence: where rehash puts a key it knows is absent.
func (h *HTable[V]) firstFree(hash uint64) (uint, int) {
	mask := uint(len(h.dir) - 1)
	gi := uint(hash>>7) & mask
	for i := uint(1); ; i++ {
		for w, c := range h.dir[gi].ctrl {
			if m := matchFree(c); m != 0 {
				return gi, slotOf(w, m)
			}
		}
		gi = (gi + i) & mask
	}
}

// rehash rebuilds the table into fresh groups, at the same size when at
// most 7/16 of the slots are live (the rest of the load was tombstones),
// doubled otherwise. Groups still shared with a clone are read, never
// written, and afterwards every group is the table's.
func (h *HTable[V]) rehash() {
	old := h.dir
	n := len(old)
	if int(h.n) > n*blockSlots*7/16 {
		n *= 2
	}
	h.dir = make([]*block[V], n)
	for i := range h.dir {
		h.dir[i] = h.newBlock(ctrlMSB)
	}
	h.shared, h.used = false, h.n
	a := int(h.arity - 1)
	kb := make([]colblock.Code, 0, h.arity)
	for _, g := range old {
		for w, c := range g.ctrl {
			for m := matchFull(c); m != 0; m &= m - 1 {
				s := slotOf(w, m)
				kb = g.appendKey(kb[:0], s, a)
				hash := colblock.Hash(kb)
				gi, fs := h.firstFree(hash)
				h.dir[gi].setCtrl(fs, hash&0x7F)
				h.dir[gi].set(fs, kb, g.v[s])
			}
		}
	}
}

// Delete removes k. The slot becomes empty if its group still has an empty
// slot — no probe passes such a group, so none needs the slot marked —
// and a tombstone otherwise.
func (h *HTable[V]) Delete(_ colblock.View, k []colblock.Code) (V, bool) {
	gi, s := h.find(colblock.Hash(k), k)
	if s < 0 {
		var zero V
		return zero, false
	}
	g := h.own(int(gi))
	v := g.v[s]
	if g.hasEmpty() {
		g.setCtrl(s, ctrlEmpty)
		h.used--
	} else {
		g.setCtrl(s, ctrlDeleted)
	}
	var zero V
	g.v[s] = zero
	h.n--
	return v, true
}

// Clone returns an independent table sharing the directory and every group
// with the receiver; both sides take fresh epochs and copy what they later
// write.
//
//relvet:role=clone
func (h *HTable[V]) Clone() Words[V] {
	c := *h
	c.blocks = h.fork()
	return &c
}

// Range visits entries in group order. Entries may be deleted during
// iteration, the one visited included, and a deleted entry is not visited
// afterwards: the walk follows a write's copy of the directory. Entries
// inserted during iteration may or may not be visited, and an insert that
// rehashes the table may make the walk repeat or miss others.
func (h *HTable[V]) Range(f func(k []colblock.Code, v V) bool) {
	r, kb := int(h.arity)-1, []colblock.Code(nil)
	dir := h.dir
	for gi := range dir {
		for w := range 2 {
			for m := matchFull(dir[gi].ctrl[w]); m != 0; m &= m - 1 {
				if len(h.dir) == len(dir) {
					dir = h.dir
				}
				g, s := dir[gi], slotOf(w, m)
				if g.ctrlAt(s)&ctrlEmpty != 0 {
					continue
				}
				if !f(g.keyAt(s, r, &kb), g.v[s]) {
					return
				}
			}
		}
	}
}

// AppendEntries appends entries in group order (Range order).
func (h *HTable[V]) AppendEntries(ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	ks, vs = slices.Grow(ks, int(h.n)*int(h.arity)), slices.Grow(vs, int(h.n))
	a := int(h.arity - 1)
	for _, g := range h.dir {
		for w, c := range g.ctrl {
			for m := matchFull(c); m != 0; m &= m - 1 {
				s := slotOf(w, m)
				ks = g.appendKey(ks, s, a)
				vs = append(vs, g.v[s])
			}
		}
	}
	return ks, vs
}

// Footprint counts groups, with the trailing key words of wide keys, as
// entries and the header and directory as overhead.
func (h *HTable[V]) Footprint() Footprint {
	return Footprint{
		Entries:  len(h.dir) * h.blockBytes(),
		Overhead: AllocSize(sizeOf[HTable[V]]()) + AllocSize(cap(h.dir)*wordBytes),
	}
}
