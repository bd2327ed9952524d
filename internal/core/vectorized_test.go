package core_test

// Engine-level test of the vectorized tier's promotion and EXPLAIN
// provenance. The run-time bailout path is pinned by the white-box test in
// vectorized_fallback_test.go; the tier's results are held to the
// interpreter in exec_oracle_test.go.

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/relation"
)

func seedSched(t *testing.T, r *core.Relation) {
	t.Helper()
	for ns := 0; ns < 4; ns++ {
		for pid := 0; pid < 8; pid++ {
			state := paperex.StateS
			if pid%4 == 0 {
				state = paperex.StateR
			}
			if err := r.Insert(paperex.SchedulerTuple(int64(ns), int64(pid), state, int64(pid))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestVectorizedQueryProvenance: a promoted shape carries a batch program,
// EXPLAIN reports it, and queries execute on the vectorized tier.
func TestVectorizedQueryProvenance(t *testing.T) {
	r := newSched(t)
	m := &obs.Metrics{}
	r.SetMetrics(m)
	seedSched(t, r)
	base := m.Snapshot()

	ex, err := r.ExplainQuery([]string{"state"}, []string{"ns", "pid"})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Compiled || !ex.Vectorized {
		t.Fatalf("explain: compiled=%v vectorized=%v, want both", ex.Compiled, ex.Vectorized)
	}
	if !strings.Contains(ex.String(), "vectorized") {
		t.Fatalf("explain text lacks the vectorized tag:\n%s", ex)
	}

	pat := relation.NewTuple(relation.BindInt("state", paperex.StateR))
	got, err := r.Query(pat, []string{"ns", "pid"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("query returned %d rows, want 8", len(got))
	}
	d := m.Snapshot().Sub(base)
	if d.ExecVectorized != 1 || d.VecFallbacks != 0 || d.PlanVectorized != 1 {
		t.Fatalf("after vectorized query: %s", d.String())
	}
}

// TestVectorizedRangeProvenance: a range query is promoted under a shape of
// its own, runs on the vectorized tier and is counted there — whatever the
// bounds, one plan-cache entry — and its tracer event still says what ran:
// the op, the plan, the rows handed back, the time.
func TestVectorizedRangeProvenance(t *testing.T) {
	r := newSched(t)
	m := &obs.Metrics{}
	tr := obs.NewRingTracer(16)
	r.SetMetrics(m)
	seedSched(t, r)
	base := m.Snapshot()
	r.SetTracer(tr)

	pat := relation.NewTuple(relation.BindInt("state", paperex.StateS))
	got, err := r.QueryRange(pat, "pid", vp(2), vp(5), []string{"ns", "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	if err := r.QueryRangeFunc(pat, "pid", nil, vp(1), []string{"ns", "cpu"}, func(relation.Tuple) bool {
		streamed++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 || streamed != 4 {
		t.Fatalf("range queries returned %d and streamed %d rows, want 12 and 4", len(got), streamed)
	}
	d := m.Snapshot().Sub(base)
	want := obs.Snapshot{QueryRange: 2, ExecVectorized: 2, PlanCacheMisses: 1, PlanCacheHits: 1, PlanVectorized: 1}
	if d != want {
		t.Fatalf("after two range queries of one shape:\n got: %s\nwant: %s", d.String(), want.String())
	}
	var execs []obs.Event
	for _, e := range tr.Events() {
		if e.Kind == obs.EvPlanExec {
			execs = append(execs, e)
		}
	}
	if len(execs) != 2 {
		t.Fatalf("traced %d plan executions, want 2: %v", len(execs), tr)
	}
	for i, rows := range []int{12, 4} {
		if e := execs[i]; e.Op != "query-range" || e.Rows != rows || !strings.HasPrefix(e.Detail, "q") || e.Dur <= 0 {
			t.Errorf("event %d: %v, want op=query-range rows=%d with a plan and a duration", i, e, rows)
		}
	}
}
