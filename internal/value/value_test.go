package value

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKinds(t *testing.T) {
	i := OfInt(42)
	if i.Kind() != Int {
		t.Errorf("OfInt kind = %v, want Int", i.Kind())
	}
	if i.Int() != 42 {
		t.Errorf("Int() = %d, want 42", i.Int())
	}
	s := OfString("hello")
	if s.Kind() != String {
		t.Errorf("OfString kind = %v, want String", s.Kind())
	}
	if s.Str() != "hello" {
		t.Errorf("Str() = %q, want hello", s.Str())
	}
}

func TestZeroValue(t *testing.T) {
	var v Value
	if v.Kind() != Int || v.Int() != 0 {
		t.Errorf("zero Value = %v, want int 0", v)
	}
}

func TestAccessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Str on int value did not panic")
		}
	}()
	OfInt(1).Str()
}

func TestIntPanicsOnString(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Int on string value did not panic")
		}
	}()
	OfString("x").Int()
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{OfInt(1), OfInt(2), -1},
		{OfInt(2), OfInt(1), 1},
		{OfInt(7), OfInt(7), 0},
		{OfInt(-5), OfInt(5), -1},
		{OfString("a"), OfString("b"), -1},
		{OfString("b"), OfString("a"), 1},
		{OfString("ab"), OfString("ab"), 0},
		{OfInt(1 << 40), OfString(""), -1}, // ints before strings
		{OfString(""), OfInt(-1 << 40), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	if got := OfInt(-3).String(); got != "-3" {
		t.Errorf("OfInt(-3).String() = %q", got)
	}
	if got := OfString("a\"b").String(); got != `"a\"b"` {
		t.Errorf("String value rendering = %q", got)
	}
}

func TestEncodeInjective(t *testing.T) {
	vals := []Value{
		OfInt(0), OfInt(1), OfInt(-1), OfInt(256), OfInt(1 << 40),
		OfString(""), OfString("0"), OfString("i"), OfString("\x00"),
		OfString("ab"), OfString("a\x00b"),
	}
	seen := make(map[string]Value)
	for _, v := range vals {
		k := string(v.AppendEncode(nil))
		if prev, ok := seen[k]; ok {
			t.Errorf("encoding collision: %v and %v both encode to %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestEncodeConcatUnambiguous(t *testing.T) {
	// <int 1, string "x"> must differ from <string "", int ...> style
	// confusions when encodings are concatenated.
	a := string(OfInt(1).AppendEncode(nil)) + string(OfString("x").AppendEncode(nil))
	b := string(OfString("x").AppendEncode(nil)) + string(OfInt(1).AppendEncode(nil))
	if a == b {
		t.Errorf("concatenated encodings are order-insensitive")
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	gen := func(r *rand.Rand) Value {
		if r.Intn(2) == 0 {
			return OfInt(r.Int63n(100) - 50)
		}
		return OfString(string(rune('a' + r.Intn(4))))
	}
	// Antisymmetry + transitivity on random triples.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHashConsistency(t *testing.T) {
	hash := func(v Value) uint64 { return v.HashInto(HashSeed) }
	if hash(OfInt(5)) != hash(OfInt(5)) {
		t.Errorf("hash of equal ints differ")
	}
	if hash(OfString("xy")) != hash(OfString("xy")) {
		t.Errorf("hash of equal strings differ")
	}
	if hash(OfInt(0)) == hash(OfString("")) {
		t.Errorf("int 0 and empty string hash equal; want separated domains")
	}
}
