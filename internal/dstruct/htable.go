package dstruct

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/colblock"
)

// HTable is an open-addressed hash table over a word mix of the key's codes
// (colblock.Hash), in groups of htSlots slots. A key's hash picks its first
// group (the bits above the low seven) and a control byte tag (the low
// seven); a lookup probes groups in triangular order, compares the tag
// against a group's sixteen control bytes a word at a time and the key
// words only where a tag matches, and stops at the first group with an
// empty slot. Entries live in the groups themselves, so an insert
// allocates nothing until the table rehashes. At most 7/8 of the slots are
// in use, tombstones counted, so Get, Put and Delete are expected O(1).
//
// A group is also the copy-on-write unit. After Clone both tables share the
// directory and every group (shared), and each takes a fresh epoch. The
// first write copies the directory, 8 bytes a group; a group is copied the
// first time one of its slots changes and the copy is stamped with the
// writer's epoch, so a group whose epoch is the table's is the table's own.
// A table never cloned, or rehashed since, owns every group and writes in
// place at no extra cost.
type HTable[V any] struct {
	dir    []*htGroup[V]
	epoch  uint64
	n      int32 // live entries
	used   int32 // live entries plus tombstones
	arity  int32
	shared bool
}

// htSlots is the number of slots per group: two control words of eight
// bytes each.
const htSlots = 16

// An htGroup is sixteen slots and their control bytes. Slot s's control
// byte is byte s%8 of ctrl[s/8]: ctrlEmpty, ctrlDeleted (a tombstone), or
// the low seven bits of the hash of the key the slot holds. A key's first
// word is k[s]; a key of more than one word keeps the rest in rest, at
// (arity-1)*s.
type htGroup[V any] struct {
	ctrl  [2]uint64
	epoch uint64
	k     [htSlots]colblock.Code
	v     [htSlots]V
	rest  *[]colblock.Code
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
func slotOf(w int, m uint64) int { return (w*8 + bits.TrailingZeros64(m)>>3) & (htSlots - 1) }

// hasEmpty reports whether the group has an empty slot: where a probe stops.
func (g *htGroup[V]) hasEmpty() bool { return matchEmpty(g.ctrl[0])|matchEmpty(g.ctrl[1]) != 0 }

// setCtrl sets slot s's control byte to c.
func (g *htGroup[V]) setCtrl(s int, c uint64) {
	sh := uint(s%8) * 8
	g.ctrl[s/8] = g.ctrl[s/8]&^(0xFF<<sh) | c<<sh
}

// ctrlAt returns slot s's control byte.
func (g *htGroup[V]) ctrlAt(s int) uint64 { return g.ctrl[s/8] >> (uint(s%8) * 8) & 0xFF }

// restAt returns the a words after the first of slot s's key.
func (g *htGroup[V]) restAt(s, a int) []colblock.Code {
	if g.rest == nil {
		return nil
	}
	return (*g.rest)[s*a : s*a+a]
}

// keyEq reports whether slot s holds the key k.
func (g *htGroup[V]) keyEq(s int, k []colblock.Code) bool {
	return g.k[s] == k[0] && slices.Equal(g.restAt(s, len(k)-1), k[1:])
}

// set fills slot s with the key k0, rest and the value v, tagged h2.
func (g *htGroup[V]) set(s int, h2 uint64, k0 colblock.Code, rest []colblock.Code, v V) {
	g.setCtrl(s, h2)
	g.k[s], g.v[s] = k0, v
	if len(rest) > 0 {
		copy((*g.rest)[s*len(rest):], rest)
	}
}

// htEpochs hands out the epochs Clone stamps tables with. A new table's
// epoch is 0: it shares no group with any table until it is cloned.
var htEpochs atomic.Uint64

// NewHTable returns an empty hash table for keys of arity words.
func NewHTable[V any](arity int) *HTable[V] {
	h := &HTable[V]{arity: int32(arity)}
	h.dir = []*htGroup[V]{h.newGroup()}
	return h
}

// newGroup returns an empty group of the table's own. Each is its own
// object: groups cut from one block would keep all of it alive after a
// clone copied the rest.
func (h *HTable[V]) newGroup() *htGroup[V] {
	g := &htGroup[V]{ctrl: [2]uint64{ctrlMSB, ctrlMSB}, epoch: h.epoch}
	if h.arity > 1 {
		rest := make([]colblock.Code, htSlots*int(h.arity-1))
		g.rest = &rest
	}
	return g
}

// Kind returns HTableKind.
func (h *HTable[V]) Kind() Kind { return HTableKind }

// Arity returns the number of words per key.
func (h *HTable[V]) Arity() int { return int(h.arity) }

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

// own makes group gi writable, copying the directory if a clone still
// shares it and the group if another epoch stamped it, and returns it.
func (h *HTable[V]) own(gi uint) *htGroup[V] {
	if h.shared {
		h.dir, h.shared = slices.Clone(h.dir), false
	}
	g := h.dir[gi]
	if g.epoch != h.epoch {
		c := *g
		c.epoch = h.epoch
		if g.rest != nil {
			rest := slices.Clone(*g.rest)
			c.rest = &rest
		}
		g = &c
		h.dir[gi] = g
	}
	return g
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
					h.own(gi).v[s] = v
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
		if int(h.used) >= len(h.dir)*htSlots*7/8 {
			h.rehash()
			fg, fs = h.firstFree(hash)
		}
		h.used++
	}
	h.own(fg).set(fs, hash&0x7F, k[0], k[1:], v)
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
	if int(h.n) > n*htSlots*7/16 {
		n *= 2
	}
	h.dir = make([]*htGroup[V], n)
	for i := range h.dir {
		h.dir[i] = h.newGroup()
	}
	h.shared, h.used = false, h.n
	a := int(h.arity - 1)
	kb := make([]colblock.Code, 0, h.arity)
	for _, g := range old {
		for w, c := range g.ctrl {
			for m := matchFull(c); m != 0; m &= m - 1 {
				s := slotOf(w, m)
				kb = append(append(kb[:0], g.k[s]), g.restAt(s, a)...)
				hash := colblock.Hash(kb)
				gi, fs := h.firstFree(hash)
				h.dir[gi].set(fs, hash&0x7F, kb[0], kb[1:], g.v[s])
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
	g := h.own(gi)
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
	e := htEpochs.Add(2)
	h.shared, h.epoch = true, e-1
	c := *h
	c.epoch = e
	return &c
}

// Range visits entries in group order. Entries may be deleted during
// iteration, the one visited included, and a deleted entry is not visited
// afterwards: the walk follows a write's copy of the directory. Entries
// inserted during iteration may or may not be visited, and an insert that
// rehashes the table may make the walk repeat or miss others.
func (h *HTable[V]) Range(f func(k []colblock.Code, v V) bool) {
	kb := make([]colblock.Code, h.arity)
	a := len(kb) - 1
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
				kb[0] = g.k[s]
				copy(kb[1:], g.restAt(s, a))
				if !f(kb, g.v[s]) {
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
				ks = append(append(ks, g.k[s]), g.restAt(s, a)...)
				vs = append(vs, g.v[s])
			}
		}
	}
	return ks, vs
}

// Footprint counts groups, with the trailing key words of wide keys, as
// entries and the header and directory as overhead.
func (h *HTable[V]) Footprint() Footprint {
	fp := Footprint{
		Entries:  len(h.dir) * AllocSize(sizeOf[htGroup[V]]()),
		Overhead: AllocSize(sizeOf[HTable[V]]()) + AllocSize(cap(h.dir)*wordBytes),
	}
	if h.arity > 1 {
		for _, g := range h.dir {
			fp.Entries += AllocSize(3*wordBytes) + codesBytes(*g.rest)
		}
	}
	return fp
}
