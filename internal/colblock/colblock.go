// Package colblock defines the engine's one value representation below the
// API boundary: a Code is one machine word holding either a small integer
// inline or an index into the Dict of the instance lineage that produced it.
// Decomposition instances store their unit columns and map keys as codes
// (packages instance and dstruct), the vectorized execution tier
// (plan.CompileBatch) moves and compares the same words in columnar Blocks,
// and a value.Value is only rebuilt from a code where a tuple crosses the
// public API.
//
// Codes are only meaningful relative to the Dict that produced them: within
// one lineage, equal values have equal codes and vice versa, so equality,
// hashing and deduplication run on raw word compares without touching the
// dictionary.
package colblock

import (
	"cmp"
	"hash/maphash"
	"sync/atomic"

	"repro/internal/value"
)

// A Code is one column value packed into a machine word. Bit 0 is the tag:
//
//	tag 0: an inline integer — the value is int64(code) >> 1 (arithmetic
//	       shift), so every int64 of at most 63 significant bits is
//	       represented without touching the dictionary;
//	tag 1: a dictionary reference — code >> 1 indexes the Dict that
//	       produced it (strings, and the rare integers of 64 significant
//	       bits).
type Code uint64

const dictTag = 1

// Unset is the word of a column nothing has been written to: a dictionary
// reference no table can hold. A unit a mutation has not yet filled — a
// root unit before the first insert — reads as Unset words.
const Unset = ^Code(0)

// InlineInt packs i as a tag-0 code, reporting whether it fits (it fits iff
// the shift loses no information — at most 63 significant bits). It is
// exported, and small enough to inline, so hot loops can encode the
// overwhelmingly common case without a Dict method call.
func InlineInt(i int64) (Code, bool) {
	c := uint64(i) << 1
	if int64(c)>>1 != i {
		return 0, false
	}
	return Code(c), true
}

// EncodeInline encodes v without a dictionary when possible — the inline
// fast path of Dict.Encode and View.Find as a free function small enough to
// inline; on false the caller goes to the dictionary.
func EncodeInline(v value.Value) (Code, bool) {
	if i, ok := v.AsInt(); ok {
		return InlineInt(i)
	}
	return 0, false
}

// HashInit, HashAdd and HashEnd are the one fold every table over codes
// hashes with — container buckets, the batch tier's probe and dedup tables —
// word at a time: start from HashInit, HashAdd each word, finish with
// HashEnd. An inline code's bit 0 is the constant tag and consecutive
// integers differ only in the few bits above it, and a multiplicative fold
// by an odd constant only ever carries a difference upward, so the low bits
// a power-of-two table masks out would keep the tag's parity. HashEnd brings
// the fold's high half — which every low bit has reached, the multiplier
// being the 64-bit golden ratio — down over them: consecutive keys then
// spread over every slot, both parities included.
const HashInit uint64 = 14695981039346656037

// HashAdd folds the word c into the running hash h.
func HashAdd(h uint64, c Code) uint64 { return (h ^ uint64(c)) * 0x9E3779B97F4A7C15 }

// HashEnd finishes a fold.
func HashEnd(h uint64) uint64 { return h ^ h>>32 }

// Hash is the fold over the words of one key.
func Hash(k []Code) uint64 {
	h := HashInit
	for _, c := range k {
		h = HashAdd(h, c)
	}
	return HashEnd(h)
}

// Hash1 is Hash of the one-word key c.
func Hash1(c Code) uint64 { return HashEnd(HashAdd(HashInit, c)) }

// A Dict is the interning table of one instance lineage: instance.New
// creates it and every version forked from that instance shares it, so a
// code means the same value in every version. Integers of at most 63
// significant bits never touch it. It is append-only and has exactly one
// writer — the lineage's serialized mutator calls Encode — while any number
// of readers decode through a View, the slice header captured when their
// version was forked or published: every code a version holds indexes below
// its own view's length, so a pinned snapshot never observes the table
// growing beside it. Interned values live as long as the lineage; nothing
// is reclaimed.
type Dict struct {
	vals []value.Value // written by the single writer only; readers hold Views
	tab  atomic.Pointer[dictIndex]
	seed maphash.Seed
	str  int // bytes of interned string payloads, for Bytes
}

// dictIndex is an insert-only open-addressed index over Dict.vals: slot
// values are index+1, 0 is empty, load factor ≤ ½. The writer stores a slot
// after appending the value it names and replaces the whole index when it
// grows; readers probe whichever index they load with atomic slot loads and
// ignore entries at or beyond their view's length.
type dictIndex struct {
	slots []atomic.Uint32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{seed: maphash.MakeSeed()}
}

func (d *Dict) hash(v value.Value) uint64 {
	if i, ok := v.AsInt(); ok {
		return Hash1(Code(i))
	}
	return maphash.String(d.seed, v.Str())
}

// lookup probes the published index for v among the first len(vals) values.
func (d *Dict) lookup(vals []value.Value, v value.Value) (Code, bool) {
	t := d.tab.Load()
	if t == nil {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := d.hash(v) & mask; ; i = (i + 1) & mask {
		s := t.slots[i].Load()
		if s == 0 {
			return 0, false
		}
		if j := int(s - 1); j < len(vals) && vals[j] == v {
			return Code(j)<<1 | dictTag, true
		}
	}
}

// Encode returns v's code, interning v if it has none yet. Only the
// lineage's writer may call it.
//
//relvet:role=writer
func (d *Dict) Encode(v value.Value) Code {
	if c, ok := EncodeInline(v); ok {
		return c
	}
	if c, ok := d.lookup(d.vals, v); ok {
		return c
	}
	j := len(d.vals)
	d.vals = append(d.vals, v)
	if v.Kind() == value.String {
		d.str += len(v.Str())
	}
	t := d.tab.Load()
	if t == nil || 2*(j+1) > len(t.slots) {
		size := 16
		for size < 4*(j+1) {
			size <<= 1
		}
		t = &dictIndex{slots: make([]atomic.Uint32, size)}
		for k := range d.vals[:j] {
			t.insert(d.hash(d.vals[k]), k)
		}
		t.insert(d.hash(v), j)
		d.tab.Store(t)
	} else {
		t.insert(d.hash(v), j)
	}
	return Code(j)<<1 | dictTag
}

func (t *dictIndex) insert(h uint64, j int) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	t.slots[i].Store(uint32(j + 1))
}

// View captures the table as it stands: the writer's view, and what a
// version is stamped with when it is forked. Only the writer may call it.
//
//relvet:role=writer
func (d *Dict) View() View { return View{vals: d.vals, d: d} }

// Len returns the number of interned (non-inline) values.
//
//relvet:role=writer
func (d *Dict) Len() int { return len(d.vals) }

// Bytes returns the heap the dictionary holds: the value table, the string
// payloads it references and the index.
//
//relvet:role=writer
func (d *Dict) Bytes() int {
	n := cap(d.vals)*32 + d.str
	if t := d.tab.Load(); t != nil {
		n += len(t.slots) * 4
	}
	return n
}

// A View is a Dict as one version sees it: the prefix of the value table
// that existed when the view was captured. Decoding through it reads only
// words written before the capture, which the version's publication orders
// before every reader, so Views are safe on the lock-free read paths while
// the writer keeps interning. The zero View decodes inline integers only.
type View struct {
	vals []value.Value
	d    *Dict
}

// Valid reports whether c is a word this view can decode.
func (vw View) Valid(c Code) bool {
	return c&dictTag == 0 || c>>1 < Code(len(vw.vals))
}

// Find returns the code v decodes from, without interning: inline for small
// integers, the table entry if v was interned before the view was captured,
// and ok=false otherwise. A miss cannot equal any code the view's version
// stores — storing it would have interned it — so a pattern value that
// misses selects nothing.
func (vw View) Find(v value.Value) (Code, bool) {
	if c, ok := EncodeInline(v); ok {
		return c, true
	}
	if vw.d == nil {
		return 0, false
	}
	return vw.d.lookup(vw.vals, v)
}

// Decode returns the value c encodes. c must be Valid for the view.
func (vw View) Decode(c Code) value.Value {
	if c&dictTag == 0 {
		return value.OfInt(int64(c) >> 1)
	}
	return vw.vals[c>>1]
}

// Compare orders the values a and b encode exactly as value.Compare orders
// them, so sorting rows by their codes yields the canonical tuple order
// without materializing a tuple. Two inline integers compare as the words
// they are (the shared zero tag bit preserves order); a dictionary
// reference on either side decodes both.
func (vw View) Compare(a, b Code) int {
	if (a|b)&dictTag == 0 {
		return cmp.Compare(int64(a), int64(b))
	}
	return value.Compare(vw.Decode(a), vw.Decode(b))
}

// CompareAcross is Compare for two codes of different lineages: a as va
// decodes it, b as vb does. An inline integer means the same in every
// dictionary, so two of them still compare as words; a dictionary reference
// on either side decodes through its own view, never the other's — equal
// references of two dictionaries may name different values.
func CompareAcross(va View, a Code, vb View, b Code) int {
	if (a|b)&dictTag == 0 {
		return cmp.Compare(int64(a), int64(b))
	}
	return value.Compare(va.Decode(a), vb.Decode(b))
}

// CompareKeys orders two keys of one arity word by word.
func (vw View) CompareKeys(a, b []Code) int {
	for i, c := range a {
		if c != b[i] {
			if r := vw.Compare(c, b[i]); r != 0 {
				return r
			}
		}
	}
	return 0
}

// CompareValue orders the value c encodes against v, which need not be
// interned: how an ordered container seeks to a range bound.
func (vw View) CompareValue(c Code, v value.Value) int {
	if c&dictTag == 0 {
		if i, ok := v.AsInt(); ok {
			return cmp.Compare(int64(c)>>1, i)
		}
	}
	return value.Compare(vw.Decode(c), v)
}

// MorselRows is the row granularity of block storage: column capacity grows
// in whole morsels (CeilRows), so a frontier that oscillates around a size
// never reallocates and a block stays cache-friendly at about 8 KiB per
// column per morsel.
const MorselRows = 1024

// CeilRows rounds n up to a whole number of morsels (minimum one), the
// capacity to allocate for a column expected to hold n rows.
func CeilRows(n int) int {
	if n <= MorselRows {
		return MorselRows
	}
	return (n + MorselRows - 1) / MorselRows * MorselRows
}

// A Block is a columnar batch of tuples: Cols[c][r] is row r of column c,
// and N is the row count. Column slices are exported raw — the batch tier's
// fused loops index and append to them directly; Block only carries the
// structure and the reuse discipline (Reset keeps capacity).
//
// Not every column need be populated to N rows at all times: the batch
// compiler sizes a column when the stage that first binds it runs. N is
// authoritative for how many rows the populated columns hold.
type Block struct {
	Cols [][]Code
	N    int
}

// NewBlock returns a block with nCols empty columns.
func NewBlock(nCols int) *Block {
	return &Block{Cols: make([][]Code, nCols)}
}

// reset empties every column, keeping capacity.
func (b *Block) reset() {
	for i := range b.Cols {
		b.Cols[i] = b.Cols[i][:0]
	}
	b.N = 0
}
