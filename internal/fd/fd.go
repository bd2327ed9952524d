// Package fd implements functional dependencies over column sets (§2 of the
// paper): representation, the attribute-closure decision procedure for the
// implication judgment ∆ ⊢fd C1 → C2 (sound and complete for Armstrong's
// axioms) and satisfaction checking on concrete relations.
package fd

import (
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

// String renders the set one dependency per line.
func (s Set) String() string {
	parts := make([]string, len(s.fds))
	for i, f := range s.fds {
		parts[i] = f.String()
	}
	return strings.Join(parts, "\n")
}
