// Package plan implements query plans over decomposition instances: the
// operators of Figure 7, the validity judgment of Figure 8, a recursive
// executor for dqexec, and the cost-driven query planner of §4.3.
//
// A plan is a tree of operators superimposed on the decomposition, rooted at
// the decomposition's root. All plan operators run in constant space: the
// executor never materializes intermediate relations (§4.1).
package plan

import (
	"fmt"
	"strings"

	"repro/internal/decomp"
)

// Side selects one side of a join primitive.
type Side int

// Join sides.
const (
	Left Side = iota
	Right
)

// String returns "left" or "right".
func (s Side) String() string {
	if s == Left {
		return "left"
	}
	return "right"
}

// An Op is a query-plan operator.
type Op interface {
	isOp()
	String() string
}

// Unit is qunit: it yields the tuple of a unit primitive if it matches the
// constraint accumulated so far.
type Unit struct {
	U *decomp.Unit
}

// Scan is qscan(q): it iterates a map edge's entries, binding the key
// columns, and runs Sub against each matching child.
type Scan struct {
	Edge *decomp.MapEdge
	Sub  Op
}

// Lookup is qlookup(q): it looks up one key (whose columns must already be
// bound) in a map edge and runs Sub against the child, if any.
type Lookup struct {
	Edge *decomp.MapEdge
	Sub  Op
}

// LR is qlr(q, side): it queries only one side of a join primitive.
type LR struct {
	Side Side
	Sub  Op
}

// Join is qjoin(q1, q2, lr): it queries both sides of a join primitive.
// LeftOp applies to the left side and RightOp to the right side; First says
// which side's query runs as the outer loop (the paper's lr argument). The
// inner query runs once per tuple the outer query yields.
type Join struct {
	LeftOp, RightOp Op
	First           Side
}

func (*Unit) isOp()   {}
func (*Scan) isOp()   {}
func (*Lookup) isOp() {}
func (*LR) isOp()     {}
func (*Join) isOp()   {}

// String renders the plan in the paper's notation, with key columns for
// map operators: qlr(qlookup[ns](qscan[pid](qunit)), left).
func (o *Unit) String() string { return "qunit" }

// String renders qscan with its key columns.
func (o *Scan) String() string {
	return fmt.Sprintf("qscan[%s](%s)", strings.Join(o.Edge.Key.Names(), ","), o.Sub)
}

// String renders qlookup with its key columns.
func (o *Lookup) String() string {
	return fmt.Sprintf("qlookup[%s](%s)", strings.Join(o.Edge.Key.Names(), ","), o.Sub)
}

// String renders qlr with its side.
func (o *LR) String() string {
	return fmt.Sprintf("qlr(%s, %s)", o.Sub, o.Side)
}

// String renders qjoin with its queries in execution order.
func (o *Join) String() string {
	q1, q2 := o.LeftOp, o.RightOp
	if o.First == Right {
		q1, q2 = o.RightOp, o.LeftOp
	}
	return fmt.Sprintf("qjoin(%s, %s, %s)", q1, q2, o.First)
}

// sideOf is the primitive on side s of join j.
func sideOf(j *decomp.Join, s Side) decomp.Primitive {
	if s == Left {
		return j.Left
	}
	return j.Right
}
