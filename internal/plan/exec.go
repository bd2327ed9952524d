package plan

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/instance"
	"repro/internal/relation"
)

// Exec implements dqexec (§4.1): it evaluates plan op over the instance,
// constrained by the input tuple s, and calls emit for every result. A
// result tuple binds s's columns plus the columns B of the validity
// judgment; the caller projects onto the columns it wants. emit returns
// false to stop early (the generated iterators of the paper stop the same
// way). Exec reports whether the traversal ran to completion.
//
// Execution is constant-space: the only state is the recursion down the
// plan tree and the constraint tuple threaded through it.
func Exec(in *instance.Instance, op Op, s relation.Tuple, emit func(relation.Tuple) bool) bool {
	return execOp(in, op, in.Decomp().RootBinding().Def, in.Root(), s, nil, emit)
}

// execOp is the one Figure 7 interpreter. rg, when non-nil, is ExecRange's
// constraint: a unit or map key binding rg.Col outside the range is skipped
// as soon as the column becomes bound, and a scan over an ordered map keyed
// exactly by rg.Col seeks instead of filtering.
func execOp(in *instance.Instance, op Op, prim decomp.Primitive, n *instance.Node, constraint relation.Tuple, rg *Range, emit func(relation.Tuple) bool) bool {
	switch op := op.(type) {
	case *Unit:
		u := n.UnitAt(in, op.U)
		if !u.Matches(constraint) || !rg.admits(u) {
			return true
		}
		return emit(constraint.Merge(u))
	case *Lookup:
		e := op.Edge
		child, ok := n.MapAt(in, e).Get(constraint.Project(e.Key))
		if !ok {
			return true
		}
		return execOp(in, op.Sub, in.Decomp().Var(e.Target).Def, child, constraint, rg, emit)
	case *Scan:
		e := op.Edge
		cont := true
		step := func(k relation.Tuple, child *instance.Node) bool {
			if !k.Matches(constraint) || !rg.admits(k) {
				return true
			}
			cont = execOp(in, op.Sub, in.Decomp().Var(e.Target).Def, child, constraint.Merge(k), rg, emit)
			return cont
		}
		m := n.MapAt(in, e)
		if rg != nil && e.Key.Len() == 1 && e.Key.Has(rg.Col) {
			if ranger, ok := m.(dstruct.Ranger[*instance.Node]); ok {
				ranger.RangeBetween(rg.loTuple(), rg.hiTuple(), step)
				return cont
			}
		}
		m.Range(step)
		return cont
	case *LR:
		j := prim.(*decomp.Join)
		return execOp(in, op.Sub, sideOf(j, op.Side), n, constraint, rg, emit)
	case *Join:
		j := prim.(*decomp.Join)
		outerOp, innerOp := op.LeftOp, op.RightOp
		outerPrim, innerPrim := j.Left, j.Right
		if op.First == Right {
			outerOp, innerOp = op.RightOp, op.LeftOp
			outerPrim, innerPrim = j.Right, j.Left
		}
		return execOp(in, outerOp, outerPrim, n, constraint, rg, func(t relation.Tuple) bool {
			return execOp(in, innerOp, innerPrim, n, t, rg, emit)
		})
	default:
		panic(fmt.Sprintf("plan: unknown operator %T", op))
	}
}

// Collect executes the plan and gathers the projections of the results onto
// out, de-duplicated and in deterministic order — the query operation's
// π_C semantics. The dedup map and result slice are pre-sized with the
// planner's default-statistics row estimate for op; callers that know better
// (the engine caches the chosen candidate's estimate) use CollectSized.
func Collect(in *instance.Instance, op Op, s relation.Tuple, out relation.Cols) []relation.Tuple {
	return CollectSized(in, op, s, out, EstimateRows(in.Decomp(), op))
}

// CollectSized is Collect with a result-cardinality hint (usually the
// planner's row estimate for the chosen plan).
func CollectSized(in *instance.Instance, op Op, s relation.Tuple, out relation.Cols, hint int) []relation.Tuple {
	return CollectFunc(func(emit func(relation.Tuple) bool) { Exec(in, op, s, emit) }, out, hint)
}

// CollectFunc gathers π_out of every tuple stream emits, de-duplicated and
// sorted — the collecting half of Collect for any executor that streams.
// The dedup map and result slice are sized once from hint instead of
// rehashed as they grow, and the encoded dedup keys are built in a single
// reused scratch buffer so duplicate results cost no allocation at all.
func CollectFunc(stream func(emit func(relation.Tuple) bool), out relation.Cols, hint int) []relation.Tuple {
	if hint < 0 {
		hint = 0
	}
	seen := make(map[string]struct{}, hint)
	var buf []byte
	res := make([]relation.Tuple, 0, hint)
	stream(func(t relation.Tuple) bool {
		p := t.Project(out)
		buf = p.AppendKey(buf[:0])
		// The map lookup with string(buf) does not allocate; the key string
		// is materialized only when the projection is new.
		if _, ok := seen[string(buf)]; !ok {
			seen[string(buf)] = struct{}{}
			res = append(res, p)
		}
		return true
	})
	relation.SortTuples(res)
	return res
}
