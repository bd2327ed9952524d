package colblock

import (
	"fmt"
	"math"
	"sync"
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
		if got := d.View().Decode(c); got != v {
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
	if got := d.View().Decode(a); got.Str() != "alpha" {
		t.Fatalf("Decode = %v", got)
	}
	// Equal value ⟺ equal code: the filter contract.
	if c, ok := d.View().Find(value.OfString("beta")); !ok || c != b {
		t.Fatalf("Find(beta) = %d,%v want %d,true", c, ok, b)
	}
	if _, ok := d.View().Find(value.OfString("gamma")); ok {
		t.Fatal("Find of an un-interned string must miss")
	}
	// Find never interns.
	if d.Len() != 2 {
		t.Fatalf("Find grew the dict to %d entries", d.Len())
	}
}

// TestViewIsAPrefix: a view captured before later interning decodes what it
// covered, misses what came after — even though the table it shares now
// holds it — and never changes length.
// TestCompareAcross: two dictionaries that interned the same values in
// opposite orders give them swapped codes. Comparing a code of one against
// a code of the other orders the values themselves, for every pair of
// strings, wide integers and inline integers.
func TestCompareAcross(t *testing.T) {
	vals := []value.Value{value.OfString("a"), value.OfString("b"), value.OfInt(math.MaxInt64), value.OfInt(math.MinInt64), value.OfInt(-3), value.OfInt(5)}
	da, db := NewDict(), NewDict()
	for i := range vals {
		da.Encode(vals[i])
		db.Encode(vals[len(vals)-1-i])
	}
	va, vb := da.View(), db.View()
	for _, x := range vals {
		for _, y := range vals {
			if got, want := CompareAcross(va, da.Encode(x), vb, db.Encode(y)), value.Compare(x, y); got != want {
				t.Errorf("CompareAcross(%v, %v) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestViewIsAPrefix(t *testing.T) {
	d := NewDict()
	a := d.Encode(value.OfString("a"))
	vw := d.View()
	var later []Code
	for i := 0; i < 5000; i++ { // reallocates the value table and the index many times over
		later = append(later, d.Encode(value.OfString(fmt.Sprintf("s%d", i))))
	}
	if len(vw.vals) != 1 || d.Len() != 5001 {
		t.Fatalf("view covers %d values, table %d; want 1 and 5001", len(vw.vals), d.Len())
	}
	if got := vw.Decode(a); got.Str() != "a" {
		t.Fatalf("view decodes %v", got)
	}
	if c, ok := vw.Find(value.OfString("a")); !ok || c != a {
		t.Fatalf("view lost its own value: %d, %v", c, ok)
	}
	if _, ok := vw.Find(value.OfString("s7")); ok {
		t.Fatal("a view found a value interned after it was captured")
	}
	if vw.Valid(later[0]) || !vw.Valid(a) || vw.Valid(Unset) {
		t.Fatal("Valid must hold exactly for codes below the view's length")
	}
	now := d.View()
	for i, c := range later {
		if got := now.Decode(c); got.Str() != fmt.Sprintf("s%d", i) {
			t.Fatalf("code %d decodes to %v", i, got)
		}
	}
	if d.Bytes() < 5001*32 {
		t.Fatalf("Bytes = %d for 5001 interned values", d.Bytes())
	}
}

// TestViewReadersRaceTheWriter: readers decode and look values up through
// views captured at different moments while the single writer keeps
// interning; run under -race this is the proof that a view touches no word
// the writer writes.
func TestViewReadersRaceTheWriter(t *testing.T) {
	d := NewDict()
	const n = 4000
	views := make(chan View, 16)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for vw := range views {
				for j := 0; j < len(vw.vals); j += 1 + len(vw.vals)/64 {
					want := value.OfString(fmt.Sprintf("s%d", j))
					c, ok := vw.Find(want)
					if !ok || vw.Decode(c) != want {
						t.Errorf("view of %d values: Find(%v) = %d, %v", len(vw.vals), want, c, ok)
						return
					}
				}
				if _, ok := vw.Find(value.OfString(fmt.Sprintf("s%d", len(vw.vals)))); ok {
					t.Errorf("view of %d values found the next one", len(vw.vals))
					return
				}
			}
		}()
	}
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			d.Encode(value.OfString(fmt.Sprintf("s%d", i)))
			if i%50 == 0 {
				views <- d.View()
			}
		}
		close(views)
	}()
	<-done
	wg.Wait()
}

// TestHashSpreadsConsecutiveInlineKeys: consecutive integers differ only
// above the constant tag bit; the fold must still reach both parities of a
// power-of-two table's slots and fill it evenly enough that a probe at load
// factor ½ takes two steps or fewer on average.
func TestHashSpreadsConsecutiveInlineKeys(t *testing.T) {
	const n, size = 1024, 2048
	var tab [size]bool
	parity := [2]int{}
	steps := 0
	for i := int64(0); i < n; i++ {
		c, _ := InlineInt(i)
		idx := Hash1(c) & (size - 1)
		parity[idx&1]++
		for steps++; tab[idx]; steps++ {
			idx = (idx + 1) & (size - 1)
		}
		tab[idx] = true
	}
	if parity[0] == 0 || parity[1] == 0 {
		t.Fatalf("home slots by parity: %v — half the table is unreachable", parity)
	}
	if avg := float64(steps) / n; avg > 2 {
		t.Fatalf("%d keys probe %.2f steps on average, want at most 2", n, avg)
	}
	if Hash1(7<<1) != Hash([]Code{7 << 1}) {
		t.Fatal("Hash1 must be Hash of a one-word key")
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
			if got, want := d.View().Compare(codes[i], codes[j]), value.Compare(vals[i], vals[j]); got != want {
				t.Errorf("Compare(%v, %v) = %d, value.Compare = %d", vals[i], vals[j], got, want)
			}
		}
	}
}
