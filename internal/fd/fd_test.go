package fd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func cols(names ...string) relation.Cols { return relation.NewCols(names...) }

// schedFDs is the paper's scheduler dependency set: ns, pid → state, cpu.
func schedFDs() Set {
	return NewSet(FD{From: cols("ns", "pid"), To: cols("state", "cpu")})
}

func TestClosure(t *testing.T) {
	s := schedFDs()
	got := s.Closure(cols("ns", "pid"))
	if !got.Equal(cols("ns", "pid", "state", "cpu")) {
		t.Errorf("closure = %v", got)
	}
	if got := s.Closure(cols("ns")); !got.Equal(cols("ns")) {
		t.Errorf("closure of {ns} = %v", got)
	}
}

func TestClosureChained(t *testing.T) {
	s := NewSet(
		FD{From: cols("a"), To: cols("b")},
		FD{From: cols("b"), To: cols("c")},
		FD{From: cols("c", "d"), To: cols("e")},
	)
	if got := s.Closure(cols("a")); !got.Equal(cols("a", "b", "c")) {
		t.Errorf("closure(a) = %v", got)
	}
	if got := s.Closure(cols("a", "d")); !got.Equal(cols("a", "b", "c", "d", "e")) {
		t.Errorf("closure(a,d) = %v", got)
	}
}

func TestImpliesArmstrong(t *testing.T) {
	s := NewSet(FD{From: cols("a"), To: cols("b")})
	// Reflexivity.
	if !s.Implies(cols("x", "y"), cols("x")) {
		t.Errorf("reflexivity failed")
	}
	if !NewSet().Implies(cols("x"), cols()) {
		t.Errorf("anything → ∅ failed")
	}
	// Augmentation: a→b implies ac→bc.
	if !s.Implies(cols("a", "c"), cols("b", "c")) {
		t.Errorf("augmentation failed")
	}
	// Transitivity.
	s2 := s.Add(FD{From: cols("b"), To: cols("c")})
	if !s2.Implies(cols("a"), cols("c")) {
		t.Errorf("transitivity failed")
	}
	// Non-implication.
	if s.Implies(cols("b"), cols("a")) {
		t.Errorf("implied reverse dependency")
	}
}

func TestIsKey(t *testing.T) {
	s := schedFDs()
	all := cols("ns", "pid", "state", "cpu")
	if !s.IsKey(cols("ns", "pid"), all) {
		t.Errorf("ns,pid not a key")
	}
	if s.IsKey(cols("ns"), all) {
		t.Errorf("ns alone reported as key")
	}
	if !s.IsKey(all, all) {
		t.Errorf("all columns not a key")
	}
}

func tup(ns, pid int64, state string, cpu int64) relation.Tuple {
	return relation.NewTuple(
		relation.BindInt("ns", ns), relation.BindInt("pid", pid),
		relation.BindString("state", state), relation.BindInt("cpu", cpu))
}

func TestHolds(t *testing.T) {
	s := schedFDs()
	good := relation.FromTuples(cols("ns", "pid", "state", "cpu"),
		tup(1, 1, "S", 7), tup(1, 2, "R", 4), tup(2, 1, "S", 5))
	if !s.Holds(good) {
		t.Errorf("FDs do not hold on valid relation")
	}
	// The paper's counterexample r′: same ns,pid with different state/cpu.
	bad := relation.FromTuples(cols("ns", "pid", "state", "cpu"),
		tup(1, 2, "S", 42), tup(1, 2, "R", 34))
	if s.Holds(bad) {
		t.Errorf("FDs hold on the paper's counterexample r′")
	}
}

func TestHoldsOnInsert(t *testing.T) {
	s := schedFDs()
	r := relation.FromTuples(cols("ns", "pid", "state", "cpu"), tup(1, 1, "S", 7))
	if !s.HoldsOnInsert(r, tup(1, 2, "R", 4)) {
		t.Errorf("legal insert rejected")
	}
	if s.HoldsOnInsert(r, tup(1, 1, "R", 7)) {
		t.Errorf("FD-violating insert accepted")
	}
	// Re-inserting an identical tuple is always fine.
	if !s.HoldsOnInsert(r, tup(1, 1, "S", 7)) {
		t.Errorf("idempotent insert rejected")
	}
}

func TestCanonical(t *testing.T) {
	s := NewSet(
		FD{From: cols("a"), To: cols("b", "c")},
		FD{From: cols("b"), To: cols("c")},
		FD{From: cols("a"), To: cols("c")}, // redundant via a→b→c
		FD{From: cols("a", "b"), To: cols("c")},
	)
	c := s.canonical()
	if !equivalent(c, s) {
		t.Fatalf("canonical cover not equivalent:\n%v\nvs\n%v", c, s)
	}
	// Every canonical FD has a single-column RHS.
	for _, f := range c.All() {
		if f.To.Len() != 1 {
			t.Errorf("canonical FD %v has wide RHS", f)
		}
	}
	if len(c.fds) > 2 {
		t.Errorf("canonical cover has %d FDs (%v), want ≤ 2", len(c.fds), c)
	}
}

func TestCanonicalMinimizesLHS(t *testing.T) {
	s := NewSet(
		FD{From: cols("a"), To: cols("b")},
		FD{From: cols("a", "b"), To: cols("c")}, // b is redundant on the left
	)
	c := s.canonical()
	if !equivalent(c, s) {
		t.Fatalf("canonical not equivalent")
	}
	for _, f := range c.All() {
		if f.To.Equal(cols("c")) && f.From.Len() != 1 {
			t.Errorf("LHS of %v not minimized", f)
		}
	}
}

// equivalent reports whether s and o imply exactly the same dependencies.
func equivalent(s, o Set) bool {
	for _, f := range s.fds {
		if !o.ImpliesFD(f) {
			return false
		}
	}
	for _, f := range o.fds {
		if !s.ImpliesFD(f) {
			return false
		}
	}
	return true
}

func TestEquivalent(t *testing.T) {
	a := NewSet(FD{From: cols("a"), To: cols("b")}, FD{From: cols("b"), To: cols("c")})
	b := NewSet(FD{From: cols("a"), To: cols("b", "c")}, FD{From: cols("b"), To: cols("c")})
	if !equivalent(a, b) {
		t.Errorf("equivalent sets reported different")
	}
	c := NewSet(FD{From: cols("a"), To: cols("b")})
	if equivalent(a, c) {
		t.Errorf("inequivalent sets reported equal")
	}
}

// TestImpliesSoundOnData cross-checks the syntactic implication judgment
// against semantics: if ∆ ⊢ X → Y and a random relation satisfies ∆, then it
// satisfies X → Y (soundness of Armstrong inference).
func TestImpliesSoundOnData(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		// Random FD set.
		var fds []FD
		for i := 0; i < rnd.Intn(3); i++ {
			from := randSubset(rnd, names)
			to := randSubset(rnd, names)
			if from.IsEmpty() || to.IsEmpty() {
				continue
			}
			fds = append(fds, FD{From: from, To: to})
		}
		s := NewSet(fds...)
		// Random relation over the columns, filtered to satisfy s.
		r := relation.Empty(cols(names...))
		for i := 0; i < 12; i++ {
			var bs []relation.Binding
			for _, n := range names {
				bs = append(bs, relation.BindInt(n, int64(rnd.Intn(3))))
			}
			t := relation.NewTuple(bs...)
			if s.HoldsOnInsert(r, t) {
				_ = r.Insert(t)
			}
		}
		// Any implied FD must hold on r.
		x, y := randSubset(rnd, names), randSubset(rnd, names)
		if s.Implies(x, y) && !HoldsOn(r, FD{From: x, To: y}) {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func randSubset(rnd *rand.Rand, pool []string) relation.Cols {
	var out []string
	for _, n := range pool {
		if rnd.Intn(2) == 0 {
			out = append(out, n)
		}
	}
	return cols(out...)
}
