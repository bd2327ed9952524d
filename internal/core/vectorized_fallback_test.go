package core

// White-box test of the vectorized run-time bailout. Every bail condition
// in a batch program guards against instance shapes the engine's own
// invariant-preserving mutations never produce (partial units, short
// keys), so the fallback cannot be reached through the public API of a
// relation core.New accepts — which is the point of the guards. To pin the
// engine-level fallback accounting anyway, this test hand-builds the one
// decomposition whose batch program compiles but always bails: a root that
// is a single (never-written, hence partial) unit. core.New rejects that
// shape as inadequate for the empty relation, but the interpreter still
// answers its degenerate semantics, which is all the fallback differential
// needs.

import (
	"testing"

	"repro/internal/decomp"
	"repro/internal/fd"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

func newUnitRootRelation() *Relation {
	spec := &Spec{
		Name: "unitroot",
		Columns: []ColDef{
			{Name: "a", Type: IntCol},
			{Name: "b", Type: IntCol},
		},
		FDs: fd.NewSet(fd.FD{From: relation.NewCols(), To: relation.NewCols("a", "b")}),
	}
	d := decomp.MustNew([]decomp.Binding{
		decomp.Let("x", nil, []string{"a", "b"}, decomp.U("a", "b")),
	}, "x")
	r := &Relation{
		spec:  spec,
		dcmp:  d,
		inst:  instance.New(d, spec.FDs),
		plans: newPlanCache(unseenFDs(d, spec.FDs)),
	}
	r.planner = plan.NewPlanner(d, spec.FDs, nil)
	return r
}

// TestVectorizedFallbackProvenance: the bailing shape still explains as
// vectorized (bailout is a run-time event, not a compile-time one), every
// query counts one VecFallbacks plus one interpreted execution, the pooled
// state stays reusable across bails, and the answer the fallback produces
// matches the interpreter's (checkTiers).
func TestVectorizedFallbackProvenance(t *testing.T) {
	r := newUnitRootRelation()
	m := &obs.Metrics{}
	r.SetMetrics(m)

	ex, err := r.ExplainQuery(nil, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Vectorized {
		t.Fatal("explain: the bailing shape must still report vectorized")
	}

	engines := map[string]tierEngine{"bare": r}
	for run := 0; run < 3; run++ { // repeated runs: the fallback must stay lossless
		if !checkTiers(t, r, engines, nil, relation.NewTuple(), []string{"a", "b"}) {
			t.Fatalf("run %d: the unit-root batch program did not bail", run)
		}
	}
	// Each run queries the engine twice: one Query, one QueryFunc.
	s := m.Snapshot()
	if s.VecFallbacks != 6 || s.ExecVectorized != 0 {
		t.Fatalf("fallback accounting: %s", s.String())
	}
	if s.ExecInterpreted != 6 || s.ExecCompiled != 0 {
		t.Fatalf("bailed queries must re-run on the interpreter: %s", s.String())
	}

	// A range query takes the same ladder: its batch program bails the same
	// way and the interpreter (plan.ExecRange) finishes it — once per call,
	// whether collected or streamed.
	lo := value.OfInt(0)
	if _, err := r.QueryRange(relation.NewTuple(), "a", &lo, nil, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	if err := r.QueryRangeFunc(relation.NewTuple(), "a", &lo, nil, []string{"b"}, func(relation.Tuple) bool { return true }); err != nil {
		t.Fatal(err)
	}
	s = m.Snapshot()
	if s.VecFallbacks != 8 || s.ExecVectorized != 0 || s.ExecInterpreted != 8 || s.ExecCompiled != 0 {
		t.Fatalf("range fallback accounting: %s", s.String())
	}
}
