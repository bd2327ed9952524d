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
