package relation

import (
	"fmt"
	"slices"
	"strings"
)

// A Relation is a mutable set of tuples over identical columns (§2). This is
// the reference implementation: a hash set of tuples with the five
// operations of the paper implemented directly from their definitions. It
// serves as the oracle against which decomposition instances are verified.
type Relation struct {
	cols   Cols
	tuples map[string]Tuple // keyed by Tuple.Key()
}

// Empty implements the paper's `empty ()`: it creates a new empty relation
// over the given columns.
func Empty(cols Cols) *Relation {
	return &Relation{cols: cols, tuples: make(map[string]Tuple)}
}

// Cols returns the column set of the relation.
func (r *Relation) Cols() Cols { return r.cols }

// Len returns the number of tuples in the relation.
func (r *Relation) Len() int { return len(r.tuples) }

// Insert implements `insert r t`: r ← !r ∪ {t}. The tuple must be a
// valuation for exactly the relation's columns.
func (r *Relation) Insert(t Tuple) error {
	if !t.Dom().Equal(r.cols) {
		return fmt.Errorf("relation: insert of tuple with columns %v into relation with columns %v", t.Dom(), r.cols)
	}
	r.tuples[t.Key()] = t
	return nil
}

// Contains reports whether the exact tuple t is in the relation.
func (r *Relation) Contains(t Tuple) bool {
	_, ok := r.tuples[t.Key()]
	return ok
}

// Remove implements `remove r s`: r ← !r \ {t ∈ !r | t ⊇ s}. It returns the
// number of tuples removed. The pattern s may be partial; its domain must be
// a subset of the relation's columns.
func (r *Relation) Remove(s Tuple) int {
	n := 0
	for k, t := range r.tuples {
		if t.Extends(s) {
			delete(r.tuples, k)
			n++
		}
	}
	return n
}

// Update implements `update r s u`:
// r ← {if t ⊇ s then t ▷ u else t | t ∈ !r}. It returns the number of tuples
// rewritten. Note that like the paper's semantics it may merge tuples when u
// collapses distinct matches onto one valuation.
func (r *Relation) Update(s, u Tuple) int {
	var changed []Tuple
	for k, t := range r.tuples {
		if t.Extends(s) {
			delete(r.tuples, k)
			changed = append(changed, t.Merge(u))
		}
	}
	for _, t := range changed {
		r.tuples[t.Key()] = t
	}
	return len(changed)
}

// Query implements `query r s C`: π_C {t ∈ !r | t ⊇ s}. The result is a set:
// duplicate projections collapse. Results are returned in a deterministic
// (sorted) order to make tests reproducible.
func (r *Relation) Query(s Tuple, out Cols) []Tuple {
	seen := make(map[string]Tuple)
	for _, t := range r.tuples {
		if t.Extends(s) {
			p := t.Project(out)
			seen[p.Key()] = p
		}
	}
	res := make([]Tuple, 0, len(seen))
	for _, t := range seen {
		res = append(res, t)
	}
	SortTuples(res)
	return res
}

// All returns every tuple in the relation in deterministic order.
func (r *Relation) All() []Tuple {
	res := make([]Tuple, 0, len(r.tuples))
	for _, t := range r.tuples {
		res = append(res, t)
	}
	SortTuples(res)
	return res
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := Empty(r.cols)
	for k, t := range r.tuples {
		c.tuples[k] = t
	}
	return c
}

// Equal reports whether r and o contain exactly the same tuples.
func (r *Relation) Equal(o *Relation) bool {
	if len(r.tuples) != len(o.tuples) {
		return false
	}
	for k := range r.tuples {
		if _, ok := o.tuples[k]; !ok {
			return false
		}
	}
	return true
}

// String renders the relation's tuples, one per line, in sorted order.
func (r *Relation) String() string {
	var sb strings.Builder
	for _, t := range r.All() {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SortTuples sorts a slice of same-domain tuples in place into canonical
// order. Tuples with differing domains sort by their canonical key, so mixed
// slices are still deterministic.
func SortTuples(ts []Tuple) {
	slices.SortFunc(ts, func(a, b Tuple) int {
		if a.Dom().Equal(b.Dom()) {
			return a.Compare(b)
		}
		return strings.Compare(a.Key(), b.Key())
	})
}
