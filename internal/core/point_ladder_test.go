package core

// The keyed point query's fallback rung. ShardedRelation routes a pattern
// binding its FD-certified shard key to Relation.queryPoint; when the chosen
// plan has no PointPlan (it joins, or scans) the query must continue down
// the same ladder every other query takes — vectorized first — not a
// private copy of it that skips a rung.

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/relation"
)

func TestKeyedPointFallbackTakesTheLadder(t *testing.T) {
	r, err := New(schedSpecInternal(), paperex.SchedulerDecomp())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(schedSpecInternal(), paperex.SchedulerDecomp(),
		ShardOptions{ShardKey: []string{"ns", "pid"}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	oracle := relation.Empty(r.spec.Cols())
	for i := int64(0); i < 64; i++ {
		tup := paperex.SchedulerTuple(i%8, i, i%2, i*3)
		if err := oracle.Insert(tup); err != nil {
			t.Fatal(err)
		}
		for _, e := range []tierEngine{r, sharded} {
			if err := e.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Every column out of a (ns, pid) pattern: the scheduler decomposition
	// answers it with a join of its two paths, so no point plan compiles.
	out := r.spec.Cols().Names()
	cand, err := r.PlanCandidate([]string{"ns", "pid"}, out)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Point != nil || cand.Batch == nil {
		t.Fatalf("plan %s: want a vectorized shape without a point plan (point=%v batch=%v)", cand.Op, cand.Point != nil, cand.Batch != nil)
	}

	m := &obs.Metrics{}
	sharded.SetMetrics(m)
	engines := map[string]tierEngine{"sharded": sharded}
	for _, pat := range []relation.Tuple{
		relation.NewTuple(relation.BindInt("ns", 3), relation.BindInt("pid", 11)),  // stored
		relation.NewTuple(relation.BindInt("ns", 3), relation.BindInt("pid", 999)), // absent
	} {
		before := m.Snapshot()
		if checkTiers(t, r, engines, oracle, pat, out) {
			t.Fatalf("pattern %v: batch program bailed on a well-formed instance", pat)
		}
		// checkTiers asked the engine twice: Query (routed to queryPoint,
		// which finds no point plan) and QueryFunc. Both must have run the
		// batch program.
		d := m.Snapshot().Sub(before)
		want := obs.Snapshot{QueryPoint: 1, QueryStream: 1, ExecVectorized: 2}
		got := obs.Snapshot{QueryPoint: d.QueryPoint, QueryStream: d.QueryStream, ExecPoint: d.ExecPoint,
			ExecVectorized: d.ExecVectorized, ExecCompiled: d.ExecCompiled, ExecInterpreted: d.ExecInterpreted, VecFallbacks: d.VecFallbacks}
		if got != want {
			t.Fatalf("pattern %v: executor counters\n got: %s\nwant: %s", pat, got.String(), want.String())
		}
	}
}
