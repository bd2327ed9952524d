package colblock

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/value"
)

func TestCodeIntRoundTrip(t *testing.T) {
	d := NewDict()
	cases := []int64{0, 1, -1, 42, -42, math.MaxInt64 >> 1, math.MinInt64 >> 1,
		math.MaxInt64, math.MinInt64, math.MaxInt64>>1 + 1, math.MinInt64>>1 - 1}
	for _, i := range cases {
		v := value.OfInt(i)
		c := d.Encode(v)
		if got := d.Decode(c); got != v {
			t.Fatalf("Decode(Encode(%d)) = %v", i, got)
		}
	}
	// Exactly the four values outside 63 significant bits hit the table.
	if d.Len() != 4 {
		t.Fatalf("interned %d values, want 4 (only >63-bit ints)", d.Len())
	}
}

func TestCodeInlineBoundary(t *testing.T) {
	// The widest inline values: ±2^62 is the first magnitude that spills.
	for _, i := range []int64{math.MaxInt64 >> 1, math.MinInt64 >> 1} {
		if _, ok := InlineInt(i); !ok {
			t.Fatalf("inlineInt(%d) should fit", i)
		}
	}
	for _, i := range []int64{math.MaxInt64>>1 + 1, math.MinInt64>>1 - 1} {
		if _, ok := InlineInt(i); ok {
			t.Fatalf("inlineInt(%d) should not fit", i)
		}
	}
}

func TestDictStrings(t *testing.T) {
	d := NewDict()
	a := d.Encode(value.OfString("alpha"))
	b := d.Encode(value.OfString("beta"))
	if a == b {
		t.Fatal("distinct strings must get distinct codes")
	}
	if again := d.Encode(value.OfString("alpha")); again != a {
		t.Fatalf("re-encoding the same string changed its code: %d vs %d", again, a)
	}
	if got := d.Decode(a); got.Str() != "alpha" {
		t.Fatalf("Decode = %v", got)
	}
	// Equal value ⟺ equal code: the filter contract.
	if c, ok := d.Find(value.OfString("beta")); !ok || c != b {
		t.Fatalf("Find(beta) = %d,%v want %d,true", c, ok, b)
	}
	if _, ok := d.Find(value.OfString("gamma")); ok {
		t.Fatal("Find of an un-interned string must miss")
	}
	// Find never interns.
	if d.Len() != 2 {
		t.Fatalf("Find grew the dict to %d entries", d.Len())
	}
}

func TestDictResetAndRecycle(t *testing.T) {
	d := NewDict()
	d.Encode(value.OfString("x"))
	d.Reset()
	if d.Len() != 0 {
		t.Fatal("Reset kept entries")
	}
	if _, ok := d.Find(value.OfString("x")); ok {
		t.Fatal("Reset kept index entries")
	}
	// Below the retention bound, Recycle keeps the table.
	c := d.Encode(value.OfString("y"))
	d.Recycle()
	if got, ok := d.Find(value.OfString("y")); !ok || got != c {
		t.Fatal("Recycle below the bound must retain the table")
	}
	// Above the bound, Recycle drops it.
	for i := 0; d.Len() <= dictRetain; i++ {
		d.Encode(value.OfString(fmt.Sprintf("s%d", i)))
	}
	d.Recycle()
	if d.Len() != 0 {
		t.Fatalf("Recycle above the bound kept %d entries", d.Len())
	}
}

func TestBlockReset(t *testing.T) {
	b := NewBlock(3)
	if len(b.Cols) != 3 || b.Rows() != 0 {
		t.Fatalf("NewBlock: %d cols, %d rows", len(b.Cols), b.Rows())
	}
	for i := range b.Cols {
		b.Cols[i] = append(b.Cols[i], 1, 2, 3)
	}
	b.N = 3
	before := cap(b.Cols[0])
	b.Reset()
	if b.Rows() != 0 {
		t.Fatal("Reset kept rows")
	}
	for i := range b.Cols {
		if len(b.Cols[i]) != 0 {
			t.Fatalf("col %d not emptied", i)
		}
	}
	if cap(b.Cols[0]) != before {
		t.Fatal("Reset must keep capacity")
	}
}

func TestCeilRows(t *testing.T) {
	cases := map[int]int{
		0:              MorselRows,
		1:              MorselRows,
		MorselRows:     MorselRows,
		MorselRows + 1: 2 * MorselRows,
		3 * MorselRows: 3 * MorselRows,
	}
	for n, want := range cases {
		if got := CeilRows(n); got != want {
			t.Fatalf("CeilRows(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestDictCompareIsValueCompare: codes order exactly as the values they
// encode, whichever mix of inline and dictionary codes a pair is.
func TestDictCompareIsValueCompare(t *testing.T) {
	d := NewDict()
	vals := []value.Value{
		value.OfInt(math.MinInt64), value.OfInt(math.MinInt64>>1 - 1), value.OfInt(math.MinInt64 >> 1),
		value.OfInt(-1), value.OfInt(0), value.OfInt(7), value.OfInt(math.MaxInt64 >> 1),
		value.OfInt(math.MaxInt64>>1 + 1), value.OfInt(math.MaxInt64),
		value.OfString(""), value.OfString("7"), value.OfString("a"), value.OfString("ab"),
	}
	// Intern in an order unrelated to the values', so dictionary indices
	// carry no accidental order.
	codes := make([]Code, len(vals))
	for _, i := range []int{12, 0, 8, 9, 1, 11, 7, 10, 2, 3, 4, 5, 6} {
		codes[i] = d.Encode(vals[i])
	}
	for i := range vals {
		for j := range vals {
			if got, want := d.Compare(codes[i], codes[j]), value.Compare(vals[i], vals[j]); got != want {
				t.Errorf("Compare(%v, %v) = %d, value.Compare = %d", vals[i], vals[j], got, want)
			}
		}
	}
}
