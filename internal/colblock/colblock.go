// Package colblock provides the flat columnar representation the vectorized
// execution tier (plan.CompileBatch) runs on: morsel-sized blocks of tuples
// stored column-wise as []Code, where a Code is one machine word encoding
// either a small integer inline or an index into a per-execution interning
// dictionary. Batch operators over blocks compare and move single words
// where the row-at-a-time tiers compare and move boxed value.Value structs,
// and a block's column is a dense array the hardware prefetches — the two
// properties the fused scan→filter→project loops of the batch tier exploit.
//
// Codes are only meaningful relative to the Dict that produced them, and
// only for that Dict's lifetime (until Reset): within it, equal values have
// equal codes and vice versa, so equality filters and deduplication run on
// raw word compares without touching the dictionary.
package colblock

import (
	"cmp"

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

// InlineInt packs i as a tag-0 code, reporting whether it fits (it fits iff
// the shift loses no information — at most 63 significant bits). It is
// exported, and small enough to inline, so hot batch loops can encode the
// overwhelmingly common case without a Dict method call.
func InlineInt(i int64) (Code, bool) {
	c := uint64(i) << 1
	if int64(c)>>1 != i {
		return 0, false
	}
	return Code(c), true
}

// EncodeInline encodes v without a dictionary when possible — the inline
// fast path of Dict.Encode as a free function small enough to inline into
// batch stage loops; on false the caller falls back to Dict.Encode.
func EncodeInline(v value.Value) (Code, bool) {
	if i, ok := v.AsInt(); ok {
		return InlineInt(i)
	}
	return 0, false
}

// dictRetain bounds how many interned values a Dict keeps across Recycle
// calls. Below the bound the table is retained so pooled steady-state
// executions re-intern nothing; above it the table is dropped to stop an
// adversarial value stream from pinning memory forever.
const dictRetain = 1 << 16

// A Dict interns values into codes for one batch execution (or a pooled
// sequence of them). It is not safe for concurrent use; the batch tier
// keeps one per pooled execution state.
type Dict struct {
	idx  map[value.Value]Code
	vals []value.Value
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{idx: make(map[value.Value]Code)}
}

// Encode returns v's code, interning v if it has none yet. Integers of at
// most 63 significant bits encode inline and never touch the table.
func (d *Dict) Encode(v value.Value) Code {
	if i, ok := v.AsInt(); ok {
		if c, ok := InlineInt(i); ok {
			return c
		}
	}
	if c, ok := d.idx[v]; ok {
		return c
	}
	c := Code(len(d.vals))<<1 | dictTag
	d.idx[v] = c
	d.vals = append(d.vals, v)
	return c
}

// Find returns the code v would decode from, without interning: inline for
// small integers, the table entry if v was already interned, and ok=false
// otherwise. Filters use it so probing for a value that is not in the
// stream never grows the dictionary — a miss cannot equal any code a bound
// column holds, precisely because Encode would have interned it.
func (d *Dict) Find(v value.Value) (Code, bool) {
	if i, ok := v.AsInt(); ok {
		if c, ok := InlineInt(i); ok {
			return c, true
		}
	}
	c, ok := d.idx[v]
	return c, ok
}

// Decode returns the value c encodes. c must have come from this Dict (or
// be an inline integer) since its last Reset.
func (d *Dict) Decode(c Code) value.Value {
	if c&dictTag == 0 {
		return value.OfInt(int64(c) >> 1)
	}
	return d.vals[c>>1]
}

// Compare orders the values a and b encode exactly as value.Compare orders
// them, so sorting rows by their codes yields the canonical tuple order
// without materializing a tuple. Two inline integers compare as the words
// they are (the shared zero tag bit preserves order); a dictionary
// reference on either side decodes both.
func (d *Dict) Compare(a, b Code) int {
	if (a|b)&dictTag == 0 {
		return cmp.Compare(int64(a), int64(b))
	}
	return value.Compare(d.Decode(a), d.Decode(b))
}

// Len returns the number of interned (non-inline) values.
func (d *Dict) Len() int { return len(d.vals) }

// Reset forgets every interned value; codes from before a Reset must not be
// decoded after it.
func (d *Dict) Reset() {
	clear(d.idx)
	d.vals = d.vals[:0]
}

// Recycle resets the dictionary only when it has grown past the retention
// bound. Pooled execution states call it on release: a steady-state
// workload keeps its (small) table and re-interns nothing, while a table
// bloated by a wide value stream is dropped.
func (d *Dict) Recycle() {
	if len(d.vals) > dictRetain {
		d.Reset()
	}
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

// Rows returns the row count.
func (b *Block) Rows() int { return b.N }

// Reset empties every column, keeping capacity.
func (b *Block) Reset() {
	for i := range b.Cols {
		b.Cols[i] = b.Cols[i][:0]
	}
	b.N = 0
}
