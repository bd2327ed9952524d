package plan

import (
	"fmt"
	"strings"

	"repro/internal/decomp"
)

// Explain renders op as an indented Figure-7 plan tree with the §4.3 cost
// estimates annotated per node, under this planner's statistics (profiled
// planners annotate with measured fanouts). Each line is one operator; its
// cost and rows columns are the estimator's values for the subtree rooted
// there, so the root line carries the whole-plan estimate the planner
// compared candidates by, and a scan's multiplicative blow-up is visible at
// the node that causes it.
func (pl *Planner) Explain(op Op) string {
	var b strings.Builder
	pl.explainNode(&b, op, pl.d.RootBinding().Def, 0, "")
	return b.String()
}

// explainLabelWidth is the column where the cost annotations start; labels
// are ASCII, so byte padding aligns.
const explainLabelWidth = 44

func (pl *Planner) explainNode(b *strings.Builder, op Op, prim decomp.Primitive, depth int, tag string) {
	cost, rows := pl.estimate(op, prim)
	label := strings.Repeat("  ", depth) + tag + pl.explainLabel(op)
	fmt.Fprintf(b, "%-*s cost=%-9.2f rows=%.1f", explainLabelWidth, label, cost, rows)
	if e := opEdge(op); e != nil {
		fmt.Fprintf(b, " fan=%.1f", pl.stats.Fanout(e))
	}
	b.WriteByte('\n')
	switch op := op.(type) {
	case *Scan:
		pl.explainNode(b, op.Sub, pl.d.Var(op.Edge.Target).Def, depth+1, "")
	case *Lookup:
		pl.explainNode(b, op.Sub, pl.d.Var(op.Edge.Target).Def, depth+1, "")
	case *LR:
		j := prim.(*decomp.Join)
		pl.explainNode(b, op.Sub, sideOf(j, op.Side), depth+1, "")
	case *Join:
		j := prim.(*decomp.Join)
		// Children in execution order: the outer (First) side drives the
		// loop, the inner side runs once per outer row.
		if op.First == Left {
			pl.explainNode(b, op.LeftOp, j.Left, depth+1, "outer: ")
			pl.explainNode(b, op.RightOp, j.Right, depth+1, "inner: ")
		} else {
			pl.explainNode(b, op.RightOp, j.Right, depth+1, "outer: ")
			pl.explainNode(b, op.LeftOp, j.Left, depth+1, "inner: ")
		}
	}
}

// explainLabel is the one-line operator description: the Figure 7 operator
// with its key columns and, for map operators, the data structure and
// target variable the edge navigates.
func (pl *Planner) explainLabel(op Op) string {
	switch op := op.(type) {
	case *Unit:
		return fmt.Sprintf("qunit{%s}", strings.Join(op.U.Cols.Names(), ","))
	case *Scan:
		return fmt.Sprintf("qscan[%s] %s -> %s",
			strings.Join(op.Edge.Key.Names(), ","), op.Edge.DS, op.Edge.Target)
	case *Lookup:
		return fmt.Sprintf("qlookup[%s] %s -> %s",
			strings.Join(op.Edge.Key.Names(), ","), op.Edge.DS, op.Edge.Target)
	case *LR:
		return fmt.Sprintf("qlr(%s)", op.Side)
	case *Join:
		return fmt.Sprintf("qjoin(outer=%s)", op.First)
	default:
		return fmt.Sprintf("%T", op)
	}
}

// opEdge returns the map edge a Scan or Lookup navigates, nil for other
// operators.
func opEdge(op Op) *decomp.MapEdge {
	switch op := op.(type) {
	case *Scan:
		return op.Edge
	case *Lookup:
		return op.Edge
	}
	return nil
}
