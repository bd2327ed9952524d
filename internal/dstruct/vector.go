package dstruct

import (
	"fmt"
	"slices"

	"repro/internal/colblock"
	"repro/internal/value"
)

// vectorMaxSpan bounds the index range a Vector will materialize. Beyond it
// the structure panics: the paper's autotuner likewise generates
// decompositions whose data structures are hopeless for the workload (they
// show up as timeouts in Figures 11 and 13); our autotuner converts the
// panic into a "did not finish" entry.
const vectorMaxSpan = 1 << 24

// Vector is a dense array mapping a single integer key column to values by
// index, the ψ = vector of the paper (used there to map the two process
// states to lists). It auto-grows in both directions around the first key
// inserted. Get, Put, and Delete are O(1); Range is ordered by key. It
// stores no key words at all: slot i's key is the inline code of base+i.
type Vector[V any] struct {
	base    int64 // key value of slot 0; meaningful once started
	slots   []vectorSlot[V]
	n       int
	started bool
	shared  bool // slots are shared with a Clone; copy before writing in place
}

type vectorSlot[V any] struct {
	val     V
	present bool
}

// NewVector returns an empty vector. It panics unless arity is one.
func NewVector[V any](arity int) *Vector[V] {
	if arity != 1 {
		panic(fmt.Sprintf("dstruct: vector key must be a single column, got %d", arity))
	}
	return &Vector[V]{}
}

// Kind returns VectorKind.
func (v *Vector[V]) Kind() Kind { return VectorKind }

// Arity returns 1.
func (v *Vector[V]) Arity() int { return 1 }

// Len returns the number of present entries.
func (v *Vector[V]) Len() int { return v.n }

// vectorIndex is the integer an inline code holds; a dictionary reference —
// a string, or an integer too wide for any span — has none.
func vectorIndex(k colblock.Code) (int64, bool) {
	return int64(k) >> 1, k&1 == 0
}

// slot returns the slot index of key k, or -1 when k is not an integer or
// falls outside the array.
func (v *Vector[V]) slot(k colblock.Code) int64 {
	key, ok := vectorIndex(k)
	if !ok || !v.started {
		return -1
	}
	if i := key - v.base; i >= 0 && i < int64(len(v.slots)) {
		return i
	}
	return -1
}

// Get returns the value for k.
func (v *Vector[V]) Get(vw colblock.View, k []colblock.Code) (V, bool) { return v.Get1(vw, k[0]) }

// Get1 is the point lookup: the array index comes straight from the key
// word.
func (v *Vector[V]) Get1(_ colblock.View, k colblock.Code) (V, bool) {
	if i := v.slot(k); i >= 0 && v.slots[i].present {
		return v.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value for k, growing the array as needed. It
// panics if k is not an integer or the span of observed keys exceeds
// vectorMaxSpan, mirroring a decomposition whose vector edge is unusable for
// the workload.
func (v *Vector[V]) Put(vw colblock.View, k []colblock.Code, v2 V) {
	key, ok := vectorIndex(k[0])
	if !ok {
		panic(fmt.Sprintf("dstruct: vector key must be a small integer, got %v", vw.Decode(k[0])))
	}
	if !v.started {
		v.base = key
		v.slots = make([]vectorSlot[V], 1)
		v.started = true
	}
	i := key - v.base
	switch {
	case i < 0:
		span := int64(len(v.slots)) - i
		if span > vectorMaxSpan {
			panic(fmt.Sprintf("dstruct: vector span %d exceeds limit", span))
		}
		grown := make([]vectorSlot[V], span)
		copy(grown[-i:], v.slots)
		v.slots = grown
		v.base = key
		v.shared = false
		i = 0
	case i >= int64(len(v.slots)):
		if i+1 > vectorMaxSpan {
			panic(fmt.Sprintf("dstruct: vector span %d exceeds limit", i+1))
		}
		grown := make([]vectorSlot[V], i+1)
		copy(grown, v.slots)
		v.slots = grown
		v.shared = false
	default:
		v.ownSlots()
	}
	if !v.slots[i].present {
		v.n++
	}
	v.slots[i] = vectorSlot[V]{val: v2, present: true}
}

// ownSlots makes the slot array writable, copying it if a Clone still
// shares it. The grow paths allocate fresh arrays and need no copy.
func (v *Vector[V]) ownSlots() {
	if v.shared {
		v.slots = slices.Clone(v.slots)
		v.shared = false
	}
}

// Delete removes k. The array never shrinks; slots are cheap.
func (v *Vector[V]) Delete(_ colblock.View, k []colblock.Code) (V, bool) {
	var zero V
	i := v.slot(k[0])
	if i < 0 || !v.slots[i].present {
		return zero, false
	}
	v.ownSlots()
	val := v.slots[i].val
	v.slots[i] = vectorSlot[V]{}
	v.n--
	return val, true
}

// Clone returns an independent vector sharing the slot array with the
// receiver; whichever side writes first copies it.
//
//relvet:role=clone
func (v *Vector[V]) Clone() Words[V] {
	v.shared = true
	c := *v
	return &c
}

// keyOf is slot i's key word.
func (v *Vector[V]) keyOf(i int) colblock.Code { return colblock.Code(uint64(v.base+int64(i)) << 1) }

// Range visits present entries in ascending key order.
func (v *Vector[V]) Range(f func(k []colblock.Code, v V) bool) {
	v.RangeBetween(colblock.View{}, nil, nil, f)
}

// RangeBetween visits the slots in [lo, hi] directly by index.
func (v *Vector[V]) RangeBetween(_ colblock.View, lo, hi *value.Value, f func(k []colblock.Code, v2 V) bool) {
	from, to := 0, len(v.slots)-1
	last := v.base + int64(to)
	if lo != nil {
		// Every string orders after every integer key.
		if lo.Kind() != value.Int || lo.Int() > last {
			return
		}
		if lo.Int() > v.base {
			from = int(lo.Int() - v.base)
		}
	}
	if hi != nil && hi.Kind() == value.Int {
		if hi.Int() < v.base {
			return
		}
		if hi.Int() < last {
			to = int(hi.Int() - v.base)
		}
	}
	var kb [1]colblock.Code
	for i := from; i <= to; i++ {
		if v.slots[i].present {
			kb[0] = v.keyOf(i)
			if !f(kb[:], v.slots[i].val) {
				return
			}
		}
	}
}

// AppendEntries appends present slots in ascending key order (Range order).
func (v *Vector[V]) AppendEntries(ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	for i := range v.slots {
		if v.slots[i].present {
			ks = append(ks, v.keyOf(i))
			vs = append(vs, v.slots[i].val)
		}
	}
	return ks, vs
}

// Footprint counts the slot array as entries.
func (v *Vector[V]) Footprint() Footprint {
	return Footprint{
		Entries:  AllocSize(cap(v.slots) * sizeOf[vectorSlot[V]]()),
		Overhead: AllocSize(sizeOf[Vector[V]]()),
	}
}
