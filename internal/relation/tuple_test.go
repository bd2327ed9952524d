package relation

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func tupNsPid(ns, pid int64) Tuple {
	return NewTuple(BindInt("ns", ns), BindInt("pid", pid))
}

func schedTuple(ns, pid int64, state string, cpu int64) Tuple {
	return NewTuple(
		BindInt("ns", ns), BindInt("pid", pid),
		BindString("state", state), BindInt("cpu", cpu))
}

func TestTupleBasics(t *testing.T) {
	tp := schedTuple(1, 2, "R", 7)
	if tp.Len() != 4 {
		t.Fatalf("Len = %d", tp.Len())
	}
	if !tp.Dom().Equal(NewCols("ns", "pid", "state", "cpu")) {
		t.Errorf("Dom = %v", tp.Dom())
	}
	if v, ok := tp.Get("state"); !ok || v.Str() != "R" {
		t.Errorf("Get(state) = %v, %v", v, ok)
	}
	if _, ok := tp.Get("missing"); ok {
		t.Errorf("Get(missing) reported bound")
	}
	if tp.MustGet("cpu").Int() != 7 {
		t.Errorf("MustGet(cpu) wrong")
	}
}

func TestTupleDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate column did not panic")
		}
	}()
	NewTuple(BindInt("a", 1), BindInt("a", 2))
}

// TestNewTupleMatchesSortSlice checks NewTuple's insertion sort against
// sort.Slice on random permutations of 0 to 8 bindings, and that a
// duplicated column panics wherever in the permutation it lands.
func TestNewTupleMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := []string{"a", "b", "cpu", "dst", "ns", "pid", "src", "state"}
	for n := 0; n <= len(names); n++ {
		for trial := 0; trial < 50; trial++ {
			bs := make([]Binding, n)
			for i, c := range rng.Perm(len(names))[:n] {
				bs[i] = BindInt(names[c], int64(rng.Intn(100)))
			}
			want := slices.Clone(bs)
			sort.Slice(want, func(i, j int) bool { return want[i].Col < want[j].Col })
			if got := NewTuple(bs...).Bindings(); !slices.Equal(got, want) {
				t.Fatalf("NewTuple(%v) = %v, want %v", bs, got, want)
			}
			if n == 0 {
				continue
			}
			dup := append(slices.Clone(bs), BindInt(bs[rng.Intn(n)].Col, -1))
			rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("NewTuple(%v) with a duplicated column did not panic", dup)
					}
				}()
				NewTuple(dup...)
			}()
		}
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustGet on unbound column did not panic")
		}
	}()
	NewTuple().MustGet("x")
}

func TestProject(t *testing.T) {
	tp := schedTuple(1, 2, "S", 5)
	p := tp.Project(NewCols("ns", "pid"))
	if !p.Equal(tupNsPid(1, 2)) {
		t.Errorf("Project = %v", p)
	}
	// Projection onto columns not in the tuple drops them.
	p2 := tp.Project(NewCols("ns", "zzz"))
	if !p2.Equal(NewTuple(BindInt("ns", 1))) {
		t.Errorf("Project with absent col = %v", p2)
	}
	if tp.Project(NewCols()).Len() != 0 {
		t.Errorf("Project onto empty set nonempty")
	}
}

// TestProjectAgainstDefinition holds Project's merge walk to the definition
// — keep exactly the bindings whose column is in C — over every pair of
// subsets of a five-name universe, so columns of C absent from t fall
// before, between and after t's own; it also pins what the engine's
// streaming read path relies on: the values are copied even when the name
// slice is shared, and a projection that keeps all of C is one allocation.
func TestProjectAgainstDefinition(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	pick := func(mask int) []string {
		var s []string
		for i, n := range names {
			if mask&(1<<i) != 0 {
				s = append(s, n)
			}
		}
		return s
	}
	for tm := 0; tm < 1<<len(names); tm++ {
		var bs []Binding
		for i, n := range pick(tm) {
			bs = append(bs, BindInt(n, int64(10*tm+i)))
		}
		tp := NewTuple(bs...)
		for cm := 0; cm < 1<<len(names); cm++ {
			c := NewCols(pick(cm)...)
			var want []Binding
			for _, b := range bs {
				if c.Has(b.Col) {
					want = append(want, b)
				}
			}
			if got := tp.Project(c); !got.Equal(NewTuple(want...)) {
				t.Fatalf("%v.Project(%v) = %v, want %v", tp, c, got, NewTuple(want...))
			}
		}
	}

	c := NewCols("ns", "pid")
	vals := []value.Value{value.OfInt(1), value.OfInt(2)}
	view := SortedTuple(c.Names(), vals)
	p := view.Project(c)
	vals[0], vals[1] = value.OfInt(8), value.OfInt(9)
	if !p.Equal(tupNsPid(1, 2)) {
		t.Errorf("projection of a view changed with the view: %v", p)
	}
	wide := schedTuple(1, 2, "S", 5)
	var kept Tuple
	if n := testing.AllocsPerRun(100, func() { kept = wide.Project(c) }); n != 1 || !kept.Equal(tupNsPid(1, 2)) {
		t.Errorf("a projection that keeps every column of C allocates %v objects (%v), want 1", n, kept)
	}
}

func TestExtendsAndMatches(t *testing.T) {
	full := schedTuple(1, 2, "R", 7)
	part := NewTuple(BindInt("ns", 1), BindString("state", "R"))
	if !full.Extends(part) {
		t.Errorf("full does not extend matching partial")
	}
	if !full.Extends(NewTuple()) {
		t.Errorf("any tuple must extend the empty tuple")
	}
	other := NewTuple(BindInt("ns", 1), BindString("state", "S"))
	if full.Extends(other) {
		t.Errorf("Extends with conflicting value")
	}
	if !full.Matches(other) == full.Extends(other) && full.Matches(other) {
		t.Errorf("Matches: disagreement on common column must be false")
	}
	// Matches allows disjoint domains.
	disj := NewTuple(BindInt("weight", 3))
	if !full.Matches(disj) {
		t.Errorf("disjoint tuples must match")
	}
	if full.Matches(other) {
		t.Errorf("tuples disagreeing on state must not match")
	}
}

func TestMergeRightBias(t *testing.T) {
	a := NewTuple(BindInt("x", 1), BindInt("y", 2))
	b := NewTuple(BindInt("y", 9), BindInt("z", 3))
	m := a.Merge(b)
	want := NewTuple(BindInt("x", 1), BindInt("y", 9), BindInt("z", 3))
	if !m.Equal(want) {
		t.Errorf("Merge = %v, want %v", m, want)
	}
	// Merge with empty is identity.
	if !a.Merge(NewTuple()).Equal(a) || !NewTuple().Merge(a).Equal(a) {
		t.Errorf("merge with empty tuple not identity")
	}
}

func TestTupleKeyInjective(t *testing.T) {
	ts := []Tuple{
		NewTuple(BindInt("a", 1)),
		NewTuple(BindInt("a", 2)),
		NewTuple(BindInt("b", 1)),
		NewTuple(BindString("a", "1")),
		NewTuple(BindInt("a", 1), BindInt("b", 2)),
		NewTuple(BindInt("ab", 1)),
		NewTuple(),
	}
	seen := make(map[string]Tuple)
	for _, tp := range ts {
		k := tp.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision between %v and %v", prev, tp)
		}
		seen[k] = tp
	}
}

func TestCompareTuples(t *testing.T) {
	a := tupNsPid(1, 2)
	b := tupNsPid(1, 3)
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Errorf("Compare ordering wrong")
	}
}

func TestCompareDomainMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Compare on different domains did not panic")
		}
	}()
	tupNsPid(1, 2).Compare(NewTuple(BindInt("ns", 1)))
}

func TestBindingsRoundTrip(t *testing.T) {
	tp := schedTuple(3, 4, "S", 9)
	rt := NewTuple(tp.Bindings()...)
	if !rt.Equal(tp) {
		t.Errorf("Bindings round trip = %v, want %v", rt, tp)
	}
}

func TestTupleString(t *testing.T) {
	tp := NewTuple(BindInt("ns", 1), BindString("state", "R"))
	if got := tp.String(); got != `<ns: 1, state: "R">` {
		t.Errorf("String() = %q", got)
	}
}

func randTuple(r *rand.Rand) Tuple {
	pool := []string{"a", "b", "c", "d"}
	var bs []Binding
	for _, c := range pool {
		switch r.Intn(3) {
		case 0:
			bs = append(bs, BindInt(c, int64(r.Intn(3))))
		case 1:
			bs = append(bs, BindString(c, string(rune('x'+r.Intn(2)))))
		}
	}
	return NewTuple(bs...)
}

func TestTupleProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(11))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randTuple(r), randTuple(r)
		// Extends implies Matches.
		if a.Extends(b) && !a.Matches(b) {
			return false
		}
		// Matches is symmetric.
		if a.Matches(b) != b.Matches(a) {
			return false
		}
		// Merge result extends the right operand.
		if !a.Merge(b).Extends(b) {
			return false
		}
		// Merge domain is the union.
		if !a.Merge(b).Dom().Equal(a.Dom().Union(b.Dom())) {
			return false
		}
		// Projection onto own domain is identity.
		if !a.Project(a.Dom()).Equal(a) {
			return false
		}
		// Key round-trips equality.
		if (a.Key() == b.Key()) != a.Equal(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestValuesKeyFixedDomain(t *testing.T) {
	// Within one domain, the values-only encoding must be injective.
	key := func(t Tuple) string { return string(t.appendValuesKey(nil)) }
	a := tupNsPid(1, 2)
	b := tupNsPid(2, 1)
	if key(a) == key(b) {
		t.Errorf("appendValuesKey collision for %v vs %v", a, b)
	}
	if key(a) != key(tupNsPid(1, 2)) {
		t.Errorf("appendValuesKey not deterministic")
	}
	_ = value.OfInt(0) // keep import for doc symmetry
}
