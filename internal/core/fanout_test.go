package core

import (
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/race"
	"repro/internal/relation"
)

// newFanOutSched is the scheduler relation sharded on its key {ns, pid}
// over the given number of cells, fanning out on the calling goroutine.
// Each cells[i] lists values v that cell i stores as the tuple with cpu
// v/10 and state v%10, under a pid chosen to route there: a read projecting
// onto (cpu, state), which binds no shard-key column, fans out over every
// cell, and reads back v wherever it is stored, in the order of v.
func newFanOutSched(t *testing.T, cells ...[]int64) *ShardedRelation {
	t.Helper()
	spec := &Spec{
		Name: "processes",
		Columns: []ColDef{
			{Name: "ns", Type: IntCol}, {Name: "pid", Type: IntCol},
			{Name: "state", Type: IntCol}, {Name: "cpu", Type: IntCol},
		},
		FDs: paperex.SchedulerFDs(),
	}
	sr, err := NewSharded(spec, paperex.SchedulerDecomp(), ShardOptions{ShardKey: []string{"ns", "pid"}, Shards: len(cells), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pid := int64(0)
	for i, vs := range cells {
		for _, v := range vs {
			for {
				pid++
				tu := paperex.SchedulerTuple(0, pid, v%10, v/10)
				if j, _ := sr.ro.mustRoute(tu); j != i {
					continue
				}
				if err := sr.Insert(tu); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	return sr
}

// projected is what a fanned-out read of newFanOutSched's cells answers for
// the stored values vs.
func projected(vs ...int64) []relation.Tuple {
	ts := make([]relation.Tuple, len(vs))
	for i, v := range vs {
		ts[i] = relation.NewTuple(relation.BindInt("cpu", v/10), relation.BindInt("state", v%10))
	}
	return ts
}

var fanOutOut = []string{"cpu", "state"}

// TestFanOutMerge: each cell's answer is sorted and de-duplicated, but a
// projection can put the same row in several cells — at the heads, or deep
// in the tails behind values only one cell has. Each value comes out once,
// in order, whichever cells held it, from Query and from QueryRange alike.
func TestFanOutMerge(t *testing.T) {
	for _, c := range []struct {
		name  string
		cells [][]int64
		want  []relation.Tuple
	}{
		{"nothing", [][]int64{nil, nil, nil}, projected()},
		{"one part", [][]int64{nil, {11, 12, 30}, nil}, projected(11, 12, 30)},
		{"disjoint", [][]int64{{11, 40}, {12, 35}, {5}}, projected(5, 11, 12, 35, 40)},
		{"equal heads", [][]int64{{11, 20}, {11, 30}, {11}}, projected(11, 20, 30)},
		{"equal tails", [][]int64{{1, 25, 99}, {2, 25, 98, 99}, {3, 99}}, projected(1, 2, 3, 25, 98, 99)},
		{"all equal", [][]int64{{7, 8}, {7, 8}, {7, 8}}, projected(7, 8)},
	} {
		sr := newFanOutSched(t, c.cells...)
		got, err := sr.Query(relation.NewTuple(), fanOutOut)
		if err != nil || got == nil || !slices.EqualFunc(got, c.want, relation.Tuple.Equal) {
			t.Errorf("%s: Query merged %v (%v), want %v", c.name, got, err, c.want)
		}
		got, err = sr.QueryRange(relation.NewTuple(), "cpu", nil, nil, fanOutOut)
		if err != nil || got == nil || !slices.EqualFunc(got, c.want, relation.Tuple.Equal) {
			t.Errorf("%s: QueryRange merged %v (%v), want %v", c.name, got, err, c.want)
		}
	}
}

// TestFanOutTracesCellRows: a cell whose batch run is held for the merge
// still reports its own distinct rows in its EvPlanExec event, not the
// empty boxed slice it never built.
func TestFanOutTracesCellRows(t *testing.T) {
	sr := newFanOutSched(t, []int64{11, 20, 20 + 100}, []int64{11, 30})
	ring := obs.NewRingTracer(8)
	sr.SetTracer(ring)
	if _, err := sr.Query(relation.NewTuple(), fanOutOut); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.QueryRange(relation.NewTuple(), "cpu", nil, nil, fanOutOut); err != nil {
		t.Fatal(err)
	}
	var rows []int
	for _, e := range ring.Events() {
		if e.Kind == obs.EvPlanExec {
			rows = append(rows, e.Rows)
		}
	}
	// Cell 0 stores (1,1), (2,0) and (12,0); cell 1 (1,1) and (3,0).
	if want := []int{3, 2, 3, 2}; !slices.Equal(rows, want) {
		t.Errorf("per-cell EvPlanExec rows %v, want %v (Query's two cells, then QueryRange's)", rows, want)
	}
}

// TestFanOutAllocations pins what a fanned-out set-valued read costs: R
// rows × k columns are ⌈R·k/16⌉ value slabs and one result slice, plus
// three fan-out objects — the part slice, the per-cell closure and the
// pool's runner around it. No cell builds a result slice of its own and the
// merge allocates nothing but the result: the cells' code rows are the only
// copy of the answer until it is boxed. Boxed per cell and merged, the
// same read made 37 allocations.
func TestFanOutAllocations(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if race.Enabled {
		t.Skip("sync.Pool randomly drops items under the race detector")
	}
	var a, b []int64
	for v := int64(0); v < 120; v++ {
		a = append(a, 2*v)
		b = append(b, 2*v+1)
	}
	sr := newFanOutSched(t, a, b)
	// 240 rows × 2 columns: thirty slabs, the result and the fan-out.
	const rows, ceiling = 240, 30 + 1 + 3
	for name, read := range map[string]func() ([]relation.Tuple, error){
		"Query": func() ([]relation.Tuple, error) { return sr.Query(relation.NewTuple(), fanOutOut) },
		"QueryRange": func() ([]relation.Tuple, error) {
			return sr.QueryRange(relation.NewTuple(), "cpu", nil, nil, fanOutOut)
		},
	} {
		n := 0
		run := func() {
			res, err := read()
			if err != nil {
				t.Fatal(err)
			}
			n = len(res)
		}
		run() // warm the plan cache and the pooled batch states
		if allocs := testing.AllocsPerRun(50, run); n != rows || allocs > ceiling {
			t.Errorf("%s: a fan-out reading %d rows × 2 columns allocates %.1f objects, want %d rows in at most %d", name, n, allocs, rows, ceiling)
		}
	}
}
