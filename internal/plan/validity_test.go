package plan

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/fd"
	"repro/internal/relation"
)

// Check implements the validity judgment of Figure 8,
// Γˆ, dˆ, A ⊢∆ q, B: it checks that plan op correctly answers queries over
// decomposition d when the input tuple binds the columns input, and returns
// the columns B the plan binds in its output tuples. A valid plan's
// execution satisfies Lemma 2 (exercised as a property test). The engine
// never calls it: the tests hold every plan the planner enumerates to it.
//
// On top of the figure's rules, Check requires A ⊆ B at the root: every
// input column must be re-verified somewhere in the plan — as a lookup key,
// during a scan's key match, or at a unit. The paper leaves this side
// condition implicit (all its example plans satisfy it), but without it a
// one-sided qlr plan could ignore an input constraint that only the other
// side of a join represents and return unfiltered results.
func Check(d *decomp.Decomp, fds fd.Set, op Op, input relation.Cols) (relation.Cols, error) {
	b, err := checkOp(d, fds, op, d.RootBinding().Def, input)
	if err != nil {
		return relation.Cols{}, err
	}
	if !input.SubsetOf(b) {
		return relation.Cols{}, fmt.Errorf("plan: input columns %v not all verified by the plan (it binds only %v)", input, b)
	}
	return b, nil
}

func checkOp(d *decomp.Decomp, fds fd.Set, op Op, prim decomp.Primitive, a relation.Cols) (relation.Cols, error) {
	switch op := op.(type) {
	case *Unit:
		// Rule QUNIT: querying a unit binds its columns.
		u, ok := prim.(*decomp.Unit)
		if !ok {
			return relation.Cols{}, fmt.Errorf("plan: qunit applied to %s", primName(prim))
		}
		if op.U != u {
			return relation.Cols{}, fmt.Errorf("plan: qunit bound to the wrong unit primitive")
		}
		return u.Cols, nil
	case *Scan:
		// Rule QSCAN: the keys are bound both for the sub-query and in the
		// output.
		e, ok := prim.(*decomp.MapEdge)
		if !ok || op.Edge != e {
			return relation.Cols{}, fmt.Errorf("plan: qscan applied to %s", primName(prim))
		}
		b, err := checkOp(d, fds, op.Sub, d.Var(e.Target).Def, a.Union(e.Key))
		if err != nil {
			return relation.Cols{}, err
		}
		return b.Union(e.Key), nil
	case *Lookup:
		// Rule QLOOKUP: the key columns must already be bound in the input.
		e, ok := prim.(*decomp.MapEdge)
		if !ok || op.Edge != e {
			return relation.Cols{}, fmt.Errorf("plan: qlookup applied to %s", primName(prim))
		}
		if !e.Key.SubsetOf(a) {
			return relation.Cols{}, fmt.Errorf("plan: qlookup on edge %s→%s needs key %v but only %v is bound", e.Parent, e.Target, e.Key, a)
		}
		b, err := checkOp(d, fds, op.Sub, d.Var(e.Target).Def, a)
		if err != nil {
			return relation.Cols{}, err
		}
		return b.Union(e.Key), nil
	case *LR:
		// Rule QLR: arbitrary query against one side of the join.
		j, ok := prim.(*decomp.Join)
		if !ok {
			return relation.Cols{}, fmt.Errorf("plan: qlr applied to %s", primName(prim))
		}
		return checkOp(d, fds, op.Sub, sideOf(j, op.Side), a)
	case *Join:
		// Rule QJOIN: each sub-query must bind enough columns that results
		// from the two sides can be matched without ambiguity:
		// ∆ ⊢ A ∪ B1 → B2 and ∆ ⊢ A ∪ B2 → B1.
		j, ok := prim.(*decomp.Join)
		if !ok {
			return relation.Cols{}, fmt.Errorf("plan: qjoin applied to %s", primName(prim))
		}
		first, second := op.LeftOp, op.RightOp
		firstPrim, secondPrim := j.Left, j.Right
		if op.First == Right {
			first, second = op.RightOp, op.LeftOp
			firstPrim, secondPrim = j.Right, j.Left
		}
		b1, err := checkOp(d, fds, first, firstPrim, a)
		if err != nil {
			return relation.Cols{}, err
		}
		b2, err := checkOp(d, fds, second, secondPrim, a.Union(b1))
		if err != nil {
			return relation.Cols{}, err
		}
		if !fds.Implies(a.Union(b1), b2) {
			return relation.Cols{}, fmt.Errorf("plan: qjoin sides ambiguous: FDs do not imply %v → %v", a.Union(b1), b2)
		}
		if !fds.Implies(a.Union(b2), b1) {
			return relation.Cols{}, fmt.Errorf("plan: qjoin sides ambiguous: FDs do not imply %v → %v", a.Union(b2), b1)
		}
		return b1.Union(b2), nil
	default:
		return relation.Cols{}, fmt.Errorf("plan: unknown operator %T", op)
	}
}

func primName(p decomp.Primitive) string {
	switch p.(type) {
	case *decomp.Unit:
		return "a unit primitive"
	case *decomp.MapEdge:
		return "a map primitive"
	case *decomp.Join:
		return "a join primitive"
	default:
		return fmt.Sprintf("%T", p)
	}
}
