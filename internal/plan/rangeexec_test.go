package plan_test

import (
	"sort"
	"testing"

	"repro/internal/instance"
	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

func TestExecRangeDirect(t *testing.T) {
	in := schedInstance(t) // r_s of Equation (1): cpu values 7, 4, 5
	pl := plan.NewPlanner(in.Decomp(), in.FDs(), plan.MeasuredStats(in))

	// Range over cpu with no pattern: the plan must bind cpu.
	cand, err := pl.Best(cols(), cols("ns", "pid", "cpu"))
	if err != nil {
		t.Fatal(err)
	}
	rg := plan.Range{Col: "cpu", Lo: value.OfInt(5), HasLo: true, Hi: value.OfInt(7), HasHi: true}
	if !rg.Contains(value.OfInt(5)) || !rg.Contains(value.OfInt(7)) || rg.Contains(value.OfInt(4)) || rg.Contains(value.OfInt(8)) {
		t.Fatalf("Range.Contains wrong")
	}
	var cpus []int64
	plan.ExecRange(in, cand.Op, relation.NewTuple(), rg, func(tup relation.Tuple) bool {
		cpus = append(cpus, tup.MustGet("cpu").Int())
		return true
	})
	if len(cpus) != 2 {
		t.Fatalf("range [5,7] returned %v", cpus)
	}
	for _, c := range cpus {
		if c < 5 || c > 7 {
			t.Fatalf("out-of-range cpu %d", c)
		}
	}

	// Range combined with an equality pattern driving a lookup.
	cand, err = pl.Best(cols("ns"), cols("pid", "cpu"))
	if err != nil {
		t.Fatal(err)
	}
	pat := relation.NewTuple(relation.BindInt("ns", 1))
	var pids []int64
	plan.ExecRange(in, cand.Op, pat, plan.Range{Col: "cpu", Lo: value.OfInt(5), HasLo: true}, func(tup relation.Tuple) bool {
		pids = append(pids, tup.MustGet("pid").Int())
		return true
	})
	// ns=1 has cpus 7 (pid 1) and 4 (pid 2); only pid 1 survives cpu ≥ 5.
	if len(pids) != 1 || pids[0] != 1 {
		t.Fatalf("pattern+range returned %v", pids)
	}

	// Early termination propagates through ranged scans.
	n := 0
	plan.ExecRange(in, cand.Op, pat, plan.Range{Col: "cpu"}, func(relation.Tuple) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early stop emitted %d", n)
	}
	_ = paperex.StateR
}

// rangeGraph builds a GraphDecomp1 instance (AVL over src, AVL over dst):
// both scan levels are ordered containers, so a range on dst under a src
// lookup exercises the RangeBetween seek path.
func rangeGraph(t *testing.T, n int) *instance.Instance {
	t.Helper()
	in := instance.New(paperex.GraphDecomp1(), paperex.GraphFDs())
	for src := 0; src < 4; src++ {
		for dst := 0; dst < n; dst++ {
			if _, err := in.Insert(paperex.EdgeTuple(int64(src), int64(dst), int64(src*n+dst))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return in
}

// rangeOracle runs the plan unconstrained and filters by the range — the
// semantics ExecRange must match whatever execution strategy it picks.
func rangeOracle(in *instance.Instance, op plan.Op, s relation.Tuple, rg plan.Range) []string {
	var keys []string
	plan.Exec(in, op, s, func(tup relation.Tuple) bool {
		if v, ok := tup.Get(rg.Col); ok && !rg.Contains(v) {
			return true
		}
		keys = append(keys, tup.Key())
		return true
	})
	sort.Strings(keys)
	return keys
}

func TestExecRangeEdgeCases(t *testing.T) {
	in := rangeGraph(t, 8)
	pl := plan.NewPlanner(in.Decomp(), in.FDs(), plan.MeasuredStats(in))
	cand, err := pl.Best(cols("src"), cols("dst", "weight"))
	if err != nil {
		t.Fatal(err)
	}
	pat := relation.NewTuple(relation.BindInt("src", 2))
	cases := []struct {
		name string
		rg   plan.Range
	}{
		{"bounded", plan.Range{Col: "dst", Lo: value.OfInt(2), HasLo: true, Hi: value.OfInt(5), HasHi: true}},
		{"unbounded", plan.Range{Col: "dst"}},
		{"lo-only", plan.Range{Col: "dst", Lo: value.OfInt(6), HasLo: true}},
		{"hi-only", plan.Range{Col: "dst", Hi: value.OfInt(1), HasHi: true}},
		{"single-point", plan.Range{Col: "dst", Lo: value.OfInt(3), HasLo: true, Hi: value.OfInt(3), HasHi: true}},
		{"empty-reversed", plan.Range{Col: "dst", Lo: value.OfInt(5), HasLo: true, Hi: value.OfInt(2), HasHi: true}},
		{"below-all", plan.Range{Col: "dst", Lo: value.OfInt(-10), HasLo: true, Hi: value.OfInt(-5), HasHi: true}},
		{"above-all", plan.Range{Col: "dst", Lo: value.OfInt(100), HasLo: true}},
		// No column constrains nothing: ExecRange must equal Exec (the
		// oracle filters nothing), as the engine's equality shapes rely on.
		{"zero", plan.Range{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			plan.ExecRange(in, cand.Op, pat, tc.rg, func(tup relation.Tuple) bool {
				got = append(got, tup.Key())
				return true
			})
			sort.Strings(got)
			want := rangeOracle(in, cand.Op, pat, tc.rg)
			if len(got) != len(want) {
				t.Fatalf("range %s: %d results, oracle %d", tc.name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("range %s result %d: %s vs %s", tc.name, i, got[i], want[i])
				}
			}
		})
	}
}

// TestExecRangeEarlyStopThroughSeek: emit returning false inside a seeked
// RangeBetween scan must stop the whole traversal, not just that subtree.
func TestExecRangeEarlyStopThroughSeek(t *testing.T) {
	in := rangeGraph(t, 8)
	pl := plan.NewPlanner(in.Decomp(), in.FDs(), plan.MeasuredStats(in))

	// Seek path: dst is the sole key of an ordered edge below the src lookup.
	cand, err := pl.Best(cols("src"), cols("dst", "weight"))
	if err != nil {
		t.Fatal(err)
	}
	pat := relation.NewTuple(relation.BindInt("src", 1))
	n := 0
	plan.ExecRange(in, cand.Op, pat, plan.Range{Col: "dst", Lo: value.OfInt(2), HasLo: true}, func(relation.Tuple) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("seeked early stop emitted %d results, want 1", n)
	}

	// Outer-scan path: no pattern, so the range column's scan sits under an
	// unordered outer scan over src — the stop must cross scan levels.
	cand, err = pl.Best(cols(), cols("src", "dst", "weight"))
	if err != nil {
		t.Fatal(err)
	}
	n = 0
	plan.ExecRange(in, cand.Op, relation.NewTuple(), plan.Range{Col: "dst", Hi: value.OfInt(3), HasHi: true}, func(relation.Tuple) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("nested early stop emitted %d results, want 1", n)
	}
}

// TestExecRangeEmptyInstance: range execution over a never-inserted
// instance emits nothing and does not panic, seeked or not.
func TestExecRangeEmptyInstance(t *testing.T) {
	in := instance.New(paperex.GraphDecomp1(), paperex.GraphFDs())
	pl := plan.NewPlanner(in.Decomp(), in.FDs(), nil)
	cand, err := pl.Best(cols("src"), cols("dst", "weight"))
	if err != nil {
		t.Fatal(err)
	}
	pat := relation.NewTuple(relation.BindInt("src", 0))
	for _, rg := range []plan.Range{
		{Col: "dst"},
		{Col: "dst", Lo: value.OfInt(0), HasLo: true, Hi: value.OfInt(10), HasHi: true},
	} {
		plan.ExecRange(in, cand.Op, pat, rg, func(tup relation.Tuple) bool {
			t.Fatalf("empty instance emitted %v", tup)
			return false
		})
	}
}
