package plan

import (
	"repro/internal/instance"
	"repro/internal/relation"
	"repro/internal/value"
)

// A Range is an inclusive interval constraint on one column, the
// order-based query extension §2 of the paper calls straightforward:
// query r s C ∧ lo ≤ t(col) ≤ hi. Either bound may be absent.
type Range struct {
	Col    string
	Lo, Hi value.Value
	HasLo  bool
	HasHi  bool
}

// admits reports whether t, if it binds the range column, binds it inside
// the range. A nil range admits everything.
func (rg *Range) admits(t relation.Tuple) bool {
	if rg == nil {
		return true
	}
	v, ok := t.Get(rg.Col)
	return !ok || rg.Contains(v)
}

// Contains reports whether v satisfies the range.
func (rg *Range) Contains(v value.Value) bool {
	if rg.HasLo && value.Compare(v, rg.Lo) < 0 {
		return false
	}
	if rg.HasHi && value.Compare(v, rg.Hi) > 0 {
		return false
	}
	return true
}

func (rg *Range) loTuple() relation.Tuple {
	if !rg.HasLo {
		return relation.Tuple{}
	}
	return relation.NewTuple(relation.Bind(rg.Col, rg.Lo))
}

func (rg *Range) hiTuple() relation.Tuple {
	if !rg.HasHi {
		return relation.Tuple{}
	}
	return relation.NewTuple(relation.Bind(rg.Col, rg.Hi))
}

// ExecRange is Exec with an additional range constraint: only results whose
// rg.Col value lies within the range are emitted. The plan must bind
// rg.Col (ask the planner for output ∪ {col}).
//
// Scans over a map edge keyed exactly by rg.Col use the container's ordered
// RangeBetween when it implements dstruct.Ranger, turning the filter into a
// seek; other operators filter as the column becomes bound.
func ExecRange(in *instance.Instance, op Op, s relation.Tuple, rg Range, emit func(relation.Tuple) bool) {
	execOp(in, op, in.Decomp().RootBinding().Def, in.Root(), s, &rg, emit)
}
