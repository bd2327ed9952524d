package plan

import (
	"repro/internal/colblock"
	"repro/internal/decomp"
	"repro/internal/instance"
	"repro/internal/relation"
)

// A PointPlan is the compiled form of a superkey point access: a plan whose
// operators are only qlookup and qlr, ending at a single qunit. Such a plan
// visits exactly one node per level and emits at most one tuple, so it can
// run as a flat loop of map lookups — no recursion, no tuple merging at
// interior nodes — instead of the general recursive executor. The planner
// attaches one to every candidate whose shape qualifies; engines use it for
// keyed point queries and in-place keyed updates.
type PointPlan struct {
	steps []pointStep
	unit  *decomp.Unit
}

// pointStep is one qlookup of the descent. When the edge's key is a single
// column the step carries its name, and Get goes through the data structure's
// one-word lookup — one value fetched from the constraint and encoded, no key
// materialized.
type pointStep struct {
	e   *decomp.MapEdge
	col string // sole key column when single-column, else ""
}

// CompilePoint compiles op into a PointPlan, or returns nil if the plan
// contains a scan or join operator (and may therefore emit more than one
// result per constraint).
func CompilePoint(op Op) *PointPlan {
	p := &PointPlan{}
	for {
		switch o := op.(type) {
		case *Lookup:
			st := pointStep{e: o.Edge}
			if o.Edge.Key.Len() == 1 {
				st.col = o.Edge.Key.Names()[0]
			}
			p.steps = append(p.steps, st)
			op = o.Sub
		case *LR:
			op = o.Sub
		case *Unit:
			p.unit = o.U
			return p
		default:
			return nil
		}
	}
}

// Get runs the compiled descent for the constraint tuple s and returns the
// unit tuple at the leaf, or ok=false when no tuple extends s. It is
// semantically identical to Exec with an emit that stops after the first
// result: the result tuple of that execution is s ▷ unit. Every map key on
// the way must be bound by s — guaranteed when the plan was built for input
// columns dom(s), as the validity judgment requires exactly that. The
// descent runs on the stored words: each key value is looked up in the
// instance's dictionary once (a value it has never seen ends the descent)
// and only the leaf unit is boxed.
func (p *PointPlan) Get(in *instance.Instance, s relation.Tuple) (relation.Tuple, bool) {
	vw := in.View()
	n := in.Root()
	for i := range p.steps {
		st := &p.steps[i]
		slot, _ := in.SlotOfEdge(st.e)
		var child *instance.Node
		ok := false
		if st.col != "" {
			v, bound := s.Get(st.col)
			if c, found := vw.Find(v); bound && found {
				child, ok = n.Map(slot).Get1(vw, c)
			}
		} else if kc, found := findKey(vw, s, st.e.Key.Names()); found {
			child, ok = n.Map(slot).Get(vw, kc)
		}
		if !ok {
			return relation.Tuple{}, false
		}
		n = child
	}
	u := n.UnitAt(in, p.unit)
	if !u.Matches(s) {
		return relation.Tuple{}, false
	}
	return u, true
}

// findKey looks the values s binds to names up in the dictionary view; ok is
// false when s leaves a name unbound or a value has no code.
func findKey(vw colblock.View, s relation.Tuple, names []string) ([]colblock.Code, bool) {
	kc := make([]colblock.Code, len(names))
	for i, name := range names {
		v, bound := s.Get(name)
		c, found := vw.Find(v)
		if !bound || !found {
			return nil, false
		}
		kc[i] = c
	}
	return kc, true
}
