package relation

// Relational-algebra operators on whole relations (§2 "Relational Algebra").
// These operate on the oracle representation and are used by the abstraction
// function of decomposition instances and by tests.

// UnionWith is the in-place union r ← r ∪ o, at a cost proportional to o
// alone: the accumulator for a union of many parts. Both relations must
// have identical columns.
func (r *Relation) UnionWith(o *Relation) {
	mustSameCols(r, o)
	for k, t := range o.tuples {
		r.tuples[k] = t
	}
}

// Project returns π_C(r).
func Project(r *Relation, c Cols) *Relation {
	out := Empty(c.Intersect(r.cols))
	for _, t := range r.tuples {
		p := t.Project(c)
		out.tuples[p.Key()] = p
	}
	return out
}

// Join returns the natural join r ⋈ o: tuples over the union of the two
// column sets formed from every pair of tuples that agree on all shared
// columns.
func Join(r, o *Relation) *Relation {
	out := Empty(r.cols.Union(o.cols))
	shared := r.cols.Intersect(o.cols)
	// Hash join on the shared columns; with no shared columns this is a
	// cross product through a single bucket.
	buckets := make(map[string][]Tuple)
	for _, t := range o.tuples {
		k := t.Project(shared).Key()
		buckets[k] = append(buckets[k], t)
	}
	for _, t := range r.tuples {
		k := t.Project(shared).Key()
		for _, u := range buckets[k] {
			j := t.Merge(u)
			out.tuples[j.Key()] = j
		}
	}
	return out
}

// Singleton returns the relation {t}.
func Singleton(t Tuple) *Relation {
	r := Empty(t.Dom())
	r.tuples[t.Key()] = t
	return r
}

// FromTuples builds a relation over cols containing the given tuples. Every
// tuple must be a valuation for cols; it panics otherwise, since it is used
// to construct fixtures.
func FromTuples(cols Cols, ts ...Tuple) *Relation {
	r := Empty(cols)
	for _, t := range ts {
		if err := r.Insert(t); err != nil {
			panic(err)
		}
	}
	return r
}

func mustSameCols(r, o *Relation) {
	if !r.cols.Equal(o.cols) {
		panic("relation: operands have different columns: " + r.cols.String() + " vs " + o.cols.String())
	}
}
