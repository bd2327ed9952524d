package dstruct

import (
	"slices"

	"repro/internal/colblock"
)

// HTable is a separately-chained hash table over a word mix of the key's
// codes (colblock.Hash). It doubles when the load factor reaches 1, so Get,
// Put, and Delete are expected O(1). A node holds its key's words, not a
// hash of them: rehashing a word on the rare doubling is cheaper than
// carrying eight more bytes per entry.
type HTable[V any] struct {
	buckets []*htNode[V]
	n       int
	arity   int32

	// Copy-on-write state. After Clone the bucket slice and every chain are
	// shared between both tables (shared). The first write copies the slice
	// and starts a bitmap of the buckets whose chains this table has since
	// made its own (owned); a chain is copied, whole, the first time a write
	// would change one of its nodes. With shared unset and owned nil — a
	// table never cloned, or regrown since — every chain is the table's and
	// writes mutate in place at no extra cost.
	shared bool
	owned  []uint64
}

type htNode[V any] struct {
	key  nodeKey
	val  V
	next *htNode[V]
}

const htInitialBuckets = 8

// NewHTable returns an empty hash table for keys of arity words.
func NewHTable[V any](arity int) *HTable[V] {
	return &HTable[V]{buckets: make([]*htNode[V], htInitialBuckets), arity: int32(arity)}
}

// Kind returns HTableKind.
func (h *HTable[V]) Kind() Kind { return HTableKind }

// Arity returns the number of words per key.
func (h *HTable[V]) Arity() int { return int(h.arity) }

// Len returns the number of entries.
func (h *HTable[V]) Len() int { return h.n }

func (h *HTable[V]) bucket(hash uint64) int {
	return int(hash & uint64(len(h.buckets)-1))
}

// Get returns the value for k.
func (h *HTable[V]) Get(_ colblock.View, k []colblock.Code) (V, bool) {
	for n := h.buckets[h.bucket(colblock.Hash(k))]; n != nil; n = n.next {
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
	for n := h.buckets[h.bucket(colblock.Hash1(k))]; n != nil; n = n.next {
		if n.key.k0 == k {
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// ownSlice makes the bucket slice itself writable, copying it if it is
// still shared with a clone.
func (h *HTable[V]) ownSlice() {
	if h.shared {
		h.buckets = append([]*htNode[V](nil), h.buckets...)
		h.owned = make([]uint64, (len(h.buckets)+63)/64)
		h.shared = false
	}
}

// ownsBucket reports whether bucket b's chain is already this table's.
func (h *HTable[V]) ownsBucket(b int) bool {
	return h.owned == nil || h.owned[b/64]&(1<<(b%64)) != 0
}

// ownBucket makes bucket b's slot and every node of its chain mutable by
// this table — a chain still shared is copied — and returns the chain head.
// Chains average a single node (the table doubles at load factor 1), so
// this copies O(1) nodes in expectation.
func (h *HTable[V]) ownBucket(b int) *htNode[V] {
	h.ownSlice()
	if !h.ownsBucket(b) {
		for p := &h.buckets[b]; *p != nil; p = &(*p).next {
			c := **p
			*p = &c
		}
		h.owned[b/64] |= 1 << (b % 64)
	}
	return h.buckets[b]
}

// Put inserts or replaces the value for k.
func (h *HTable[V]) Put(_ colblock.View, k []colblock.Code, v V) {
	b := h.bucket(colblock.Hash(k))
	for n := h.buckets[b]; n != nil; n = n.next {
		if n.key.eq(k) {
			for m := h.ownBucket(b); m != nil; m = m.next {
				if m.key.eq(k) {
					m.val = v
					return
				}
			}
			return // unreachable: the owned chain holds the same keys
		}
	}
	h.ownSlice()
	if h.n >= len(h.buckets) {
		h.grow()
		b = h.bucket(colblock.Hash(k))
	}
	// Linking in front changes no node of the chain, shared or not.
	h.buckets[b] = &htNode[V]{key: makeNodeKey(k), val: v, next: h.buckets[b]}
	h.n++
}

// grow doubles the bucket array. Relinking mutates next pointers, so the
// nodes of a chain still shared are copied as they move over; afterwards
// every chain is the table's.
func (h *HTable[V]) grow() {
	old := h.buckets
	h.buckets = make([]*htNode[V], 2*len(old))
	for ob, n := range old {
		mine := h.ownsBucket(ob)
		for n != nil {
			next := n.next
			m := n
			if !mine {
				c := *n
				m = &c
			}
			b := h.bucket(m.key.hash())
			m.next = h.buckets[b]
			h.buckets[b] = m
			n = next
		}
	}
	h.owned = nil
}

// Delete removes k.
func (h *HTable[V]) Delete(_ colblock.View, k []colblock.Code) (V, bool) {
	var zero V
	b := h.bucket(colblock.Hash(k))
	present := false
	for n := h.buckets[b]; n != nil; n = n.next {
		if n.key.eq(k) {
			present = true
			break
		}
	}
	if !present {
		return zero, false
	}
	h.ownBucket(b)
	for p := &h.buckets[b]; *p != nil; p = &(*p).next {
		if n := *p; n.key.eq(k) {
			*p = n.next
			h.n--
			return n.val, true
		}
	}
	return zero, false
}

// Clone returns an independent table sharing the bucket slice and every
// chain node with the receiver; both sides copy buckets they later write.
//
//relvet:role=clone
func (h *HTable[V]) Clone() Words[V] {
	h.shared, h.owned = true, nil
	c := *h
	return &c
}

// Range visits entries in bucket order. Entries may be deleted during
// iteration; entries inserted during iteration may or may not be visited.
func (h *HTable[V]) Range(f func(k []colblock.Code, v V) bool) {
	kb := make([]colblock.Code, 0, h.arity)
	for _, head := range h.buckets {
		for n := head; n != nil; {
			next := n.next
			if !f(n.key.appendTo(kb[:0]), n.val) {
				return
			}
			n = next
		}
	}
}

// AppendEntries appends entries in bucket order (Range order).
func (h *HTable[V]) AppendEntries(ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	ks, vs = slices.Grow(ks, h.n*int(h.arity)), slices.Grow(vs, h.n)
	for _, head := range h.buckets {
		for n := head; n != nil; n = n.next {
			ks = n.key.appendTo(ks)
			vs = append(vs, n.val)
		}
	}
	return ks, vs
}

// Footprint counts chain nodes as entries and the header, bucket array and
// ownership bitmap as overhead.
func (h *HTable[V]) Footprint() Footprint {
	fp := Footprint{
		Entries:  h.n * AllocSize(sizeOf[htNode[V]]()),
		Overhead: AllocSize(sizeOf[HTable[V]]()) + AllocSize(cap(h.buckets)*wordBytes) + AllocSize(cap(h.owned)*wordBytes),
	}
	if h.arity > 1 {
		for _, head := range h.buckets {
			for n := head; n != nil; n = n.next {
				fp.Entries += n.key.bytes()
			}
		}
	}
	return fp
}
