package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/faultinject"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/value"
)

func vp(v int64) *value.Value {
	x := value.OfInt(v)
	return &x
}

// rangeDecomps returns scheduler decompositions with different ordered
// structures on the cpu-bearing paths, so the range query exercises both
// the seek fast path and the filter fallback.
func rangeDecomps() map[string]*decomp.Decomp {
	mk := func(kind dstruct.Kind) *decomp.Decomp {
		return decomp.MustNew([]decomp.Binding{
			decomp.Let("w", []string{"ns", "pid"}, []string{"state", "cpu"},
				decomp.U("state", "cpu")),
			decomp.Let("y", []string{"ns"}, []string{"pid", "state", "cpu"},
				decomp.M(kind, "w", "pid")),
			decomp.Let("root", nil, []string{"ns", "pid", "state", "cpu"},
				decomp.M(dstruct.HTableKind, "y", "ns")),
		}, "root")
	}
	return map[string]*decomp.Decomp{
		"avl-inner":      mk(dstruct.AVLKind),      // ordered: seek path on pid
		"skiplist-inner": mk(dstruct.SkipListKind), // ordered: seek path on pid
		"dlist-inner":    mk(dstruct.DListKind),    // unordered: filter path
		"figure2":        paperex.SchedulerDecomp(),
	}
}

func TestQueryRangeAgainstOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	for name, d := range rangeDecomps() {
		t.Run(name, func(t *testing.T) {
			r, err := core.New(schedSpec(), d)
			if err != nil {
				t.Fatal(err)
			}
			oracle := relation.Empty(paperex.SchedulerCols())
			for i := 0; i < 120; i++ {
				tup := paperex.SchedulerTuple(int64(rnd.Intn(3)), int64(rnd.Intn(60)),
					int64(rnd.Intn(2)), int64(rnd.Intn(40)))
				if !r.Spec().FDs.HoldsOnInsert(oracle, tup) {
					continue
				}
				_ = oracle.Insert(tup)
				if err := r.Insert(tup); err != nil {
					t.Fatal(err)
				}
			}
			for trial := 0; trial < 30; trial++ {
				var pat relation.Tuple
				if rnd.Intn(2) == 0 {
					pat = relation.NewTuple(relation.BindInt("ns", int64(rnd.Intn(3))))
				}
				col := []string{"pid", "cpu"}[rnd.Intn(2)]
				var lo, hi *value.Value
				if rnd.Intn(4) != 0 {
					lo = vp(int64(rnd.Intn(40)))
				}
				if rnd.Intn(4) != 0 {
					hi = vp(int64(rnd.Intn(40) + 10))
				}
				got, err := r.QueryRange(pat, col, lo, hi, []string{"ns", "pid", "cpu"})
				if err != nil {
					t.Fatal(err)
				}
				// Oracle: equality query then client-side filter.
				var want []relation.Tuple
				for _, u := range oracle.Query(pat, relation.NewCols("ns", "pid", "cpu")) {
					v := u.MustGet(col)
					if lo != nil && value.Compare(v, *lo) < 0 {
						continue
					}
					if hi != nil && value.Compare(v, *hi) > 0 {
						continue
					}
					want = append(want, u)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d (%s ∈ [%v,%v], pat %v): got %d rows, want %d",
						trial, col, lo, hi, pat, len(got), len(want))
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("trial %d: row %d: %v vs %v", trial, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestQueryRangeValidation(t *testing.T) {
	r := newSched(t)
	// Unknown range column.
	if _, err := r.QueryRange(relation.NewTuple(), "bogus", nil, nil, []string{"ns"}); err == nil {
		t.Errorf("unknown range column accepted")
	}
	// Range column already bound by the pattern.
	pat := relation.NewTuple(relation.BindInt("cpu", 1))
	if _, err := r.QueryRange(pat, "cpu", nil, nil, []string{"ns"}); err == nil {
		t.Errorf("range over bound column accepted")
	}
	// Unknown output column.
	if _, err := r.QueryRange(relation.NewTuple(), "cpu", nil, nil, []string{"bogus"}); err == nil {
		t.Errorf("unknown output accepted")
	}
}

func TestQueryRangeStreamingStops(t *testing.T) {
	r := newSched(t)
	for pid := int64(0); pid < 20; pid++ {
		if err := r.Insert(paperex.SchedulerTuple(1, pid, pid%2, pid)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	err := r.QueryRangeFunc(relation.NewTuple(), "cpu", vp(5), vp(15), []string{"pid"}, func(relation.Tuple) bool {
		n++
		return n < 4
	})
	if err != nil || n != 4 {
		t.Errorf("early stop: n=%d err=%v", n, err)
	}
}

// TestQueryRangeKilledAtEveryStep runs the vectorized range query through
// the fault wrapper — whose Ranger forwarding is what keeps the seek (and,
// over the dlist, the filter) reachable while injection is on — and kills
// it at every point it crosses. A read has nothing to roll back: the panic
// must come back as an error, and the same relation, its pooled execution
// state abandoned mid-run, must answer the next range query correctly.
func TestQueryRangeKilledAtEveryStep(t *testing.T) {
	p := planeForTest(t)
	out := []string{"ns", "pid", "cpu"}
	for name, d := range rangeDecomps() {
		t.Run(name, func(t *testing.T) {
			fresh := func() *core.Relation {
				r, err := core.New(schedSpec(), d)
				if err != nil {
					t.Fatal(err)
				}
				for pid := int64(0); pid < 12; pid++ {
					if err := r.Insert(paperex.SchedulerTuple(pid%2, pid, pid%2, pid*3)); err != nil {
						t.Fatal(err)
					}
				}
				return r
			}
			query := func(r *core.Relation) ([]relation.Tuple, error) {
				return r.QueryRange(relation.NewTuple(), "pid", vp(3), vp(8), out)
			}
			want, err := query(fresh())
			if err != nil || len(want) != 6 {
				t.Fatalf("clean run: %d rows, %v", len(want), err)
			}
			faultinject.Sweep(t, p, faultinject.Regime[*core.Relation]{
				Fresh:   fresh,
				Action:  func(r *core.Relation) error { _, err := query(r); return err },
				Modes:   []faultinject.Mode{faultinject.Panic},
				Require: []string{"dstruct.range"},
				Contract: func(r *core.Relation, a faultinject.Attempt) {
					a.RequireContained(t)
					got, err := query(r)
					if err != nil || len(got) != len(want) {
						t.Fatalf("step %d (%s): the query after the killed one returned %d rows, %v", a.Step, a.Point.Site, len(got), err)
					}
					for i := range got {
						if !got[i].Equal(want[i]) {
							t.Fatalf("step %d (%s): row %d is %v, want %v", a.Step, a.Point.Site, i, got[i], want[i])
						}
					}
				},
			})
		})
	}
}
