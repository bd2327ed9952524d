// Package fd implements functional dependencies over column sets (§2 of the
// paper): representation, the attribute-closure decision procedure for the
// implication judgment ∆ ⊢fd C1 → C2 (sound and complete for Armstrong's
// axioms), satisfaction checking on concrete relations, and canonical
// covers.
package fd

import (
	"sort"
	"strings"

	"repro/internal/relation"
)

// An FD is a single functional dependency From → To.
type FD struct {
	From relation.Cols
	To   relation.Cols
}

// String renders the dependency as "a, b -> c".
func (f FD) String() string {
	return strings.Join(f.From.Names(), ", ") + " -> " + strings.Join(f.To.Names(), ", ")
}

// A Set is an immutable collection of functional dependencies ∆.
// The zero value is the empty set.
type Set struct {
	fds []FD
}

// NewSet returns a set containing the given dependencies.
func NewSet(fds ...FD) Set {
	s := make([]FD, len(fds))
	copy(s, fds)
	return Set{fds: s}
}

// Add returns a new set extended with f.
func (s Set) Add(f FD) Set {
	out := make([]FD, len(s.fds)+1)
	copy(out, s.fds)
	out[len(s.fds)] = f
	return Set{fds: out}
}

// All returns the dependencies in the set. The caller must not mutate the
// returned slice.
func (s Set) All() []FD { return s.fds }

// Closure computes the attribute closure A⁺ of the column set a under the
// dependencies of s: the largest set B with s ⊢fd a → B. It runs the
// standard fixed-point algorithm.
func (s Set) Closure(a relation.Cols) relation.Cols {
	closure := a
	for changed := true; changed; {
		changed = false
		for _, f := range s.fds {
			if f.From.SubsetOf(closure) && !f.To.SubsetOf(closure) {
				closure = closure.Union(f.To)
				changed = true
			}
		}
	}
	return closure
}

// Implies decides the implication judgment ∆ ⊢fd from → to. It is sound and
// complete with respect to Armstrong's axioms: ∆ implies from → to iff
// to ⊆ from⁺.
func (s Set) Implies(from, to relation.Cols) bool {
	if to.SubsetOf(from) {
		return true // reflexivity fast path
	}
	return to.SubsetOf(s.Closure(from))
}

// ImpliesFD reports whether s implies the dependency f.
func (s Set) ImpliesFD(f FD) bool { return s.Implies(f.From, f.To) }

// Holds reports r ⊨fd s: every dependency of s holds on the concrete
// relation r (§2 "Functional Dependencies"). For each dependency From → To
// it checks that no two tuples agree on From but disagree on To.
func (s Set) Holds(r *relation.Relation) bool {
	for _, f := range s.fds {
		if !HoldsOn(r, f) {
			return false
		}
	}
	return true
}

// HoldsOn reports whether the single dependency f holds on relation r.
func HoldsOn(r *relation.Relation, f FD) bool {
	seen := make(map[string]string, r.Len())
	for _, t := range r.All() {
		from := t.Project(f.From).Key()
		to := t.Project(f.To).Key()
		if prev, ok := seen[from]; ok && prev != to {
			return false
		}
		seen[from] = to
	}
	return true
}

// HoldsOnInsert reports whether inserting t into r would preserve all
// dependencies of s, without materializing the extended relation.
func (s Set) HoldsOnInsert(r *relation.Relation, t relation.Tuple) bool {
	for _, f := range s.fds {
		from := t.Project(f.From)
		to := t.Project(f.To).Key()
		ok := true
		for _, u := range r.Query(from, r.Cols()) {
			if u.Project(f.To).Key() != to {
				ok = false
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// IsKey reports whether the column set k is a key for relations over cols
// under s: s ⊢fd k → cols.
func (s Set) IsKey(k, cols relation.Cols) bool { return s.Implies(k, cols) }

// canonical returns an equivalent set in a canonical form: every dependency
// is split to single-column right-hand sides, trivial dependencies are
// dropped, redundant dependencies are removed, and the result is sorted.
func (s Set) canonical() Set {
	// Split right-hand sides and drop trivial parts.
	var split []FD
	for _, f := range s.fds {
		for _, c := range f.To.Minus(f.From).Names() {
			split = append(split, FD{From: f.From, To: relation.NewCols(c)})
		}
	}
	// Remove redundant dependencies: f is redundant if the rest imply it.
	kept := make([]bool, len(split))
	for i := range kept {
		kept[i] = true
	}
	for i := range split {
		kept[i] = false
		rest := Set{fds: filterFDs(split, kept)}
		if !rest.ImpliesFD(split[i]) {
			kept[i] = true
		}
	}
	out := filterFDs(split, kept)
	// Minimize left-hand sides: drop columns whose removal preserves the FD.
	for i, f := range out {
		from := f.From
		for _, c := range f.From.Names() {
			smaller := from.Minus(relation.NewCols(c))
			if smaller.IsEmpty() {
				continue
			}
			trial := Set{fds: out}
			if trial.Implies(smaller, f.To) {
				from = smaller
			}
		}
		out[i] = FD{From: from, To: f.To}
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i].From.Key(), out[j].From.Key(); a != b {
			return a < b
		}
		return out[i].To.Key() < out[j].To.Key()
	})
	// Dedupe identical entries after minimization.
	dedup := out[:0]
	for i, f := range out {
		if i == 0 || f.String() != out[i-1].String() {
			dedup = append(dedup, f)
		}
	}
	return Set{fds: dedup}
}

func filterFDs(fds []FD, keep []bool) []FD {
	var out []FD
	for i, f := range fds {
		if keep[i] {
			out = append(out, f)
		}
	}
	return out
}

// String renders the set one dependency per line.
func (s Set) String() string {
	parts := make([]string, len(s.fds))
	for i, f := range s.fds {
		parts[i] = f.String()
	}
	return strings.Join(parts, "\n")
}
