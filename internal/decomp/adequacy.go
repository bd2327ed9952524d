package decomp

import (
	"repro/internal/diag"
	"repro/internal/fd"
	"repro/internal/relation"
)

// Adequacy violations carry the name of the violated judgment clause of
// Figure 6 in their Rule field, so error messages and lint output can point
// at the exact rule a decomposition fails.
const (
	RuleUnitRoot  = "AUNIT-ROOT" // unit under empty bound columns (at the root)
	RuleUnitFD    = "AUNIT-FD"   // AUNIT: ∆ ⊬ A → C
	RuleMapFD     = "AMAP-FD"    // AMAP: ∆ ⊬ B ∪ C → A
	RuleMapShare  = "AMAP-SHARE" // AMAP: A ⊉ B ∪ C
	RuleJoinFD    = "AJOIN"      // AJOIN: ∆ ⊬ A ∪ (B ∩ C) → B ⊖ C
	RuleLetCover  = "ALET-COVER" // declared cover ≠ derived cover
	RuleLetScope  = "ALET-SCOPE" // binding mentions columns outside the relation
	RuleRootCover = "AVAR"       // root cover ≠ relation columns
)

// AdequacyCode is the lint code carried by every adequacy diagnostic.
const AdequacyCode diag.Code = "relvet001"

// AdequacyDiagnostics implements the adequacy judgment of Figure 6:
// ·; ∅ ⊢∆ dˆ ; C. It returns one positioned diagnostic per violation
// found, naming the offending node or edge and the violated clause; an
// empty result means the decomposition can represent every relation with
// the given columns satisfying the given functional dependencies (Lemma 1,
// exercised as a property test in package instance).
//
// The checker walks the bindings in order, maintaining the variable typing
// environment Σ. For each binding let v : B ▷ C = pˆ it checks pˆ under
// bound columns B (rule ALET) and requires the derived cover to equal the
// declared C; the environment entries are exactly the declared types, as in
// the paper's rules. Within one binding the walk stops at the first
// violation (later checks would be judged against an unknown cover), but
// every binding is visited.
func (d *Decomp) AdequacyDiagnostics(cols relation.Cols, fds fd.Set) []diag.Diagnostic {
	var ds []diag.Diagnostic
	for _, b := range d.bindings {
		got, viol := d.adequatePrim(b, b.Def, fds)
		if viol != nil {
			ds = append(ds, *viol)
		} else if !got.Equal(b.Cover) {
			v := diag.Errorf(b.Pos, AdequacyCode, b.Var,
				"decomp: %q declares cover %v but its definition covers %v", b.Var, b.Cover, got)
			v.Rule = RuleLetCover
			ds = append(ds, v)
		}
		if !b.Bound.SubsetOf(cols) || !b.Cover.SubsetOf(cols) {
			v := diag.Errorf(b.Pos, AdequacyCode, b.Var,
				"decomp: %q mentions columns outside the relation's %v", b.Var, cols)
			v.Rule = RuleLetScope
			ds = append(ds, v)
		}
	}
	root := d.byVar[d.root]
	// Rule AVAR: the root has type ∅ ▷ C (New already enforces Bound = ∅)
	// and the decomposition must represent all columns of the relation.
	if !root.Cover.Equal(cols) {
		v := diag.Errorf(root.Pos, AdequacyCode, d.root,
			"decomp: root %q: root covers %v, relation has columns %v", d.root, root.Cover, cols)
		v.Rule = RuleRootCover
		ds = append(ds, v)
	}
	return ds
}

// CheckAdequate runs AdequacyDiagnostics and reports the first violation as
// an error (a *diag.DiagError carrying the full diagnostic). A nil error
// means the decomposition is adequate.
func (d *Decomp) CheckAdequate(cols relation.Cols, fds fd.Set) error {
	if ds := d.AdequacyDiagnostics(cols, fds); len(ds) > 0 {
		return &diag.DiagError{Diag: ds[0]}
	}
	return nil
}

// adequatePrim checks primitive p under the bound columns of binding b and
// returns the columns p covers, or the first violation found.
func (d *Decomp) adequatePrim(b *Binding, p Primitive, fds fd.Set) (relation.Cols, *diag.Diagnostic) {
	bound := b.Bound
	switch p := p.(type) {
	case *Unit:
		// Rule AUNIT: A ≠ ∅ and ∆ ⊢ A → C.
		if bound.IsEmpty() {
			v := diag.Errorf(p.Pos, AdequacyCode, b.Var,
				"decomp: unit %v at root variable %q (a unit at the root cannot represent the empty relation)", p.Cols, b.Var)
			v.Rule = RuleUnitRoot
			return relation.Cols{}, &v
		}
		if !fds.Implies(bound, p.Cols) {
			v := diag.Errorf(p.Pos, AdequacyCode, b.Var,
				"decomp: unit %v in %q: FDs do not imply %v → %v", p.Cols, b.Var, bound, p.Cols)
			v.Rule = RuleUnitFD
			return relation.Cols{}, &v
		}
		return p.Cols, nil
	case *MapEdge:
		// Rule AMAP with (v : A ▷ D) ∈ Σ: ∆ ⊢ B ∪ C → A and A ⊇ B ∪ C;
		// the map covers C ∪ D.
		tgt := d.byVar[p.Target]
		bk := bound.Union(p.Key)
		if !tgt.Bound.SubsetOf(fds.Closure(bk)) {
			v := diag.Errorf(p.Pos, AdequacyCode, edgeName(b.Var, p.Target),
				"decomp: edge %q→%q: FDs do not imply %v → %v", b.Var, p.Target, bk, tgt.Bound)
			v.Rule = RuleMapFD
			return relation.Cols{}, &v
		}
		if !bk.SubsetOf(tgt.Bound) {
			v := diag.Errorf(p.Pos, AdequacyCode, edgeName(b.Var, p.Target),
				"decomp: edge %q→%q: target bound %v does not include path columns %v (sharing would conflate distinct sub-relations)", b.Var, p.Target, tgt.Bound, bk)
			v.Rule = RuleMapShare
			return relation.Cols{}, &v
		}
		return p.Key.Union(tgt.Cover), nil
	case *Join:
		// Rule AJOIN: ∆ ⊢ A ∪ (B ∩ C) → B ⊖ C.
		left, viol := d.adequatePrim(b, p.Left, fds)
		if viol != nil {
			return relation.Cols{}, viol
		}
		right, viol := d.adequatePrim(b, p.Right, fds)
		if viol != nil {
			return relation.Cols{}, viol
		}
		need := left.SymDiff(right)
		have := bound.Union(left.Intersect(right))
		if !fds.Implies(have, need) {
			v := diag.Errorf(p.Pos, AdequacyCode, b.Var,
				"decomp: join in %q: FDs do not imply %v → %v, so the two sides could disagree", b.Var, have, need)
			v.Rule = RuleJoinFD
			return relation.Cols{}, &v
		}
		return left.Union(right), nil
	default:
		v := diag.Errorf(diag.Pos{}, AdequacyCode, b.Var, "decomp: unknown primitive %T", p)
		return relation.Cols{}, &v
	}
}

// edgeName renders an edge's node label for diagnostics.
func edgeName(parent, target string) string { return parent + "→" + target }

// Cut computes the decomposition cut of §4.5 for a removal or update whose
// pattern binds the columns C: the partition (X, Y) of the variables where
// Y holds every variable whose instances can only ever be part of the
// representation of tuples agreeing on C (∆ ⊢ Bound(v) → C), and X the
// rest. The returned map sends each variable name to true iff it is in Y.
//
// The adequacy conditions guarantee edges cross only from X into Y (checked
// by TestCutEdgesOneWay).
func (d *Decomp) Cut(fds fd.Set, c relation.Cols) map[string]bool {
	inY := make(map[string]bool, len(d.bindings))
	for _, b := range d.bindings {
		inY[b.Var] = fds.Implies(b.Bound, c)
	}
	return inY
}
