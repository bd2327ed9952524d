package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/fd"
	"repro/internal/relation"
)

// unseenFDs returns the FDs of fds that the insert walk of an instance of d
// cannot see (see instance.Insert); insert and update check those by query
// (checkFD), and only those. Every other FD is implied by what the walk
// keeps true of a well-formed instance:
//   - keys(P) → K(v), for each variable v and root→v path P, where keys(P)
//     are the key columns along P and K(v) their union over every path to
//     v: tuples agreeing on keys(P) share v's node, and the walk never links
//     a path into an existing node, so every path reaches a node under one
//     valuation;
//   - K(v) → units(v): a node holds one valuation of its units;
//   - K(p) → Key(e), for a map edge e out of p whose key p's bound columns
//     determine: the walk never adds a second key to such a container.
//
// A decomposition whose every FD follows from these pays no query on
// insert; the benchmark's do.
func unseenFDs(d *decomp.Decomp, fds fd.Set) []fd.FD {
	paths := map[string][]relation.Cols{d.Root(): {relation.NewCols()}}
	var seen []fd.FD
	for _, b := range d.TopoDown() {
		var k relation.Cols
		for _, p := range paths[b.Var] {
			k = k.Union(p)
		}
		for _, p := range paths[b.Var] {
			seen = append(seen, fd.FD{From: p, To: k})
		}
		for _, u := range d.UnitsOf(b.Var) {
			seen = append(seen, fd.FD{From: k, To: u.Cols})
		}
		for _, e := range d.EdgesOf(b.Var) {
			if fds.Implies(b.Bound, e.Key) {
				seen = append(seen, fd.FD{From: k, To: e.Key})
			}
			for _, p := range paths[b.Var] {
				paths[e.Target] = append(paths[e.Target], p.Union(e.Key))
			}
		}
	}
	walk := fd.NewSet(seen...)
	var unseen []fd.FD
	for _, f := range fds.All() {
		if !walk.ImpliesFD(f) {
			unseen = append(unseen, f)
		}
	}
	return unseen
}

// sets reports whether an update setting the columns u can change what f
// relates.
func sets(f fd.FD, u relation.Cols) bool { return f.From.Intersects(u) || f.To.Intersects(u) }

// checkFD fails when r holds a tuple that agrees with t on f's left side
// and not on its right — one storing t would violate f with — other than
// the tuple the key pattern skip matches: an update's match, which t
// replaces. An insert's skip binds nothing and skips no tuple.
func (r *Relation) checkFD(t relation.Tuple, f fd.FD, skip relation.Tuple) error {
	out := f.To.Union(skip.Dom())
	conflict := false
	err := r.queryFunc(t.Project(f.From), out, func(got relation.Tuple) bool {
		if skip.Len() > 0 && got.Matches(skip) {
			return true
		}
		conflict = !got.Project(f.To).Equal(t.Project(f.To))
		return !conflict
	})
	if err == nil && conflict {
		err = fmt.Errorf("core: storing %v violates FD %v", t, f)
	}
	return err
}
