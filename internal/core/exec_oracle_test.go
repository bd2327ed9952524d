package core

// The engine-level executor oracle. Nothing selects an execution tier any
// more — dispatch is point → vectorized → interpreter on bail — so the tiers
// are held to the interpreter here, directly: for every (decomposition,
// shape) pair the test takes the candidate the engine itself promoted
// (PlanCandidate) and compares plan.Exec on cand.Op — the Figure 7
// interpreter, the reference — with cand.Batch and the engines' own
// Query/QueryFunc. Range queries sit in the same table (checkRangeTiers):
// the range candidate's batch program and the engines' QueryRange and
// QueryRangeFunc against plan.ExecRange and the relational oracle.

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// Fixtures only the external test package can build — dsl imports core, so
// this package cannot parse spec/flows.rel, and rangeDecomps lives beside
// the range tests that own it. oracle_hooks_test.go fills these in.
var (
	OracleRangeDecomps func() map[string]*decomp.Decomp
	OracleFlowsRel     func(t *testing.T) (*Spec, *decomp.Decomp)
)

// tierEngine is the surface the oracle drives on every tier of the engine.
type tierEngine interface {
	Insert(t relation.Tuple) error
	Remove(pat relation.Tuple) (int, error)
	Update(pat, u relation.Tuple) (int, error)
	Query(pat relation.Tuple, out []string) ([]relation.Tuple, error)
	QueryFunc(pat relation.Tuple, out []string, f func(relation.Tuple) bool) error
	QueryRange(pat relation.Tuple, col string, lo, hi *value.Value, out []string) ([]relation.Tuple, error)
	CheckInvariants() error
	SetMetrics(m *obs.Metrics)
}

// snapshotsOf returns the bare relations an engine currently answers from —
// itself, its published snapshot, or one snapshot per shard — which is where
// QueryRangeFunc lives (the concurrent tiers expose only QueryRange).
func snapshotsOf(e tierEngine) []*Relation {
	switch e := e.(type) {
	case *Relation:
		return []*Relation{e}
	case *SyncRelation:
		return []*Relation{e.Snapshot()}
	case *ShardedRelation:
		rs := make([]*Relation, e.NumShards())
		for i := range rs {
			rs[i] = e.Shard(i)
		}
		return rs
	}
	panic("unknown engine")
}

func tupleKeys(ts []relation.Tuple) []string {
	keys := make([]string, len(ts))
	for i, t := range ts {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	return keys
}

// checkTiers runs one query on every executor of r's promoted candidate and
// on each engine, and fails unless all agree with the interpreter on both
// the deduplicated result set and the raw row stream (as a multiset: shard
// broadcast order is unspecified) — and the interpreter with the relational
// oracle, when there is one. It reports whether the batch program bailed,
// so callers can pin which shapes may.
func checkTiers(t *testing.T, r *Relation, engines map[string]tierEngine, oracle *relation.Relation, pat relation.Tuple, out []string) (bailed bool) {
	t.Helper()
	in := pat.Dom().Names()
	cand, err := r.PlanCandidate(in, out)
	if err != nil {
		t.Fatalf("%v → %v: %v", in, out, err)
	}
	outCols := relation.NewCols(out...)
	wantSet := tupleKeys(plan.Collect(r.inst, cand.Op, pat, outCols))
	if oracle != nil {
		if want := tupleKeys(oracle.Query(pat, outCols)); !slices.Equal(wantSet, want) {
			t.Fatalf("%v → %v pattern %v plan %s: interpreter %v, relational oracle %v", in, out, pat, cand.Op, wantSet, want)
		}
	}
	var wantRows []relation.Tuple
	plan.Exec(r.inst, cand.Op, pat, func(tp relation.Tuple) bool {
		wantRows = append(wantRows, tp.Project(outCols))
		return true
	})
	wantStream := tupleKeys(wantRows)
	check := func(tier string, set, stream []relation.Tuple) {
		t.Helper()
		if got := tupleKeys(set); !slices.Equal(got, wantSet) {
			t.Fatalf("%v → %v pattern %v plan %s: %s collected %v, interpreter %v", in, out, pat, cand.Op, tier, got, wantSet)
		}
		if got := tupleKeys(stream); !slices.Equal(got, wantStream) {
			t.Fatalf("%v → %v pattern %v plan %s: %s streamed %v, interpreter %v", in, out, pat, cand.Op, tier, got, wantStream)
		}
	}

	if cand.Batch == nil {
		t.Fatalf("%v → %v plan %s: promoted without a batch program", in, out, cand.Op)
	}
	var rows []relation.Tuple
	if br, ok := cand.Batch.Run(r.inst, pat); ok {
		br.EachTuple(func(tp relation.Tuple) bool {
			rows = append(rows, tp.Project(outCols))
			return true
		})
		check("vectorized", br.Collect(), rows)
		br.Release()
	} else {
		bailed = true
	}

	for name, e := range engines {
		set, err := e.Query(pat, out)
		if err != nil {
			t.Fatalf("%s Query(%v, %v): %v", name, pat, out, err)
		}
		rows = nil
		if err := e.QueryFunc(pat, out, func(tp relation.Tuple) bool {
			rows = append(rows, tp.Project(tp.Dom()))
			return true
		}); err != nil {
			t.Fatalf("%s QueryFunc(%v, %v): %v", name, pat, out, err)
		}
		check(name, set, rows)
	}
	return bailed
}

// checkRangeTiers is checkTiers for one range query: π_out of the tuples
// extending pat with lo ≤ col ≤ hi. The relational oracle filtered by the
// bounds is the reference for the result set and its canonical order; the
// interpreter (plan.ExecRange on the range candidate's plan) must agree
// with it and is the reference for the raw row stream; the candidate's
// batch program, every engine's QueryRange and QueryRangeFunc over every
// engine's snapshots must agree with both. It reports whether the batch
// program bailed.
func checkRangeTiers(t *testing.T, r *Relation, engines map[string]tierEngine, oracle *relation.Relation, pat relation.Tuple, col string, lo, hi *value.Value, out []string) (bailed bool) {
	t.Helper()
	in := pat.Dom().Names()
	outCols := relation.NewCols(out...)
	cand, err := r.planShape(pat.Dom(), outCols, col)
	if err != nil {
		t.Fatalf("%v → %v range %s: %v", in, out, col, err)
	}
	rg := rangeOf(col, lo, hi)
	wantRel := relation.Empty(outCols)
	for _, u := range oracle.Query(pat, r.spec.Cols()) {
		if rg.Contains(u.MustGet(col)) {
			_ = wantRel.Insert(u.Project(outCols))
		}
	}
	wantSet := wantRel.All() // de-duplicated, in SortTuples order
	var wantRows []relation.Tuple
	plan.ExecRange(r.inst, cand.Op, pat, rg, func(tp relation.Tuple) bool {
		wantRows = append(wantRows, tp.Project(outCols))
		return true
	})
	wantStream := tupleKeys(wantRows)
	check := func(tier string, set, stream []relation.Tuple) {
		t.Helper()
		if !slices.EqualFunc(set, wantSet, relation.Tuple.Equal) {
			t.Fatalf("%v → %v pattern %v %s∈[%v,%v] plan %s: %s collected %v, relational oracle %v", in, out, pat, col, lo, hi, cand.Op, tier, set, wantSet)
		}
		if got := tupleKeys(stream); !slices.Equal(got, wantStream) {
			t.Fatalf("%v → %v pattern %v %s∈[%v,%v] plan %s: %s streamed %v, interpreter %v", in, out, pat, col, lo, hi, cand.Op, tier, got, wantStream)
		}
	}
	check("interpreter", plan.CollectFunc(func(emit func(relation.Tuple) bool) {
		plan.ExecRange(r.inst, cand.Op, pat, rg, emit)
	}, outCols, 0), wantRows)

	if cand.Batch == nil {
		t.Fatalf("%v → %v range %s plan %s: promoted without a batch program", in, out, col, cand.Op)
	}
	if br, ok := cand.Batch.RunRange(r.inst, pat, rg); ok {
		var rows []relation.Tuple
		br.EachTuple(func(tp relation.Tuple) bool {
			rows = append(rows, tp.Project(outCols))
			return true
		})
		check("vectorized", br.Collect(), rows)
		br.Release()
	} else {
		bailed = true
	}

	for name, e := range engines {
		set, err := e.QueryRange(pat, col, lo, hi, out)
		if err != nil {
			t.Fatalf("%s QueryRange(%v, %s, %v): %v", name, pat, col, out, err)
		}
		var rows []relation.Tuple
		for _, snap := range snapshotsOf(e) {
			if err := snap.QueryRangeFunc(pat, col, lo, hi, out, func(tp relation.Tuple) bool {
				rows = append(rows, tp.Project(tp.Dom()))
				return true
			}); err != nil {
				t.Fatalf("%s QueryRangeFunc(%v, %s, %v): %v", name, pat, col, out, err)
			}
		}
		check(name, set, rows)
	}
	return bailed
}

// rangeBounds returns the intervals the range differential puts around v, a
// value of the range column that some stored tuple holds: unbounded, either
// half-open side, a window, an interval beyond every key, an inverted one,
// and exactly the one key.
func rangeBounds(v int64) [][2]*value.Value {
	p := func(i int64) *value.Value { x := value.OfInt(i); return &x }
	return [][2]*value.Value{
		{nil, nil},
		{p(v), nil},
		{nil, p(v)},
		{p(v - 3), p(v + 3)},
		{p(1 << 40), p(1<<40 + 9)},
		{p(v + 3), p(v - 3)},
		{p(v), p(v)},
	}
}

// rangeBindSite names where plan op first binds col — which decides how a
// range program constrains it: "seek" or "filter" for a scan keyed exactly
// by col (over an ordered or an unordered structure), "key" for a wider scan
// key, "unit" for a unit; prefixed "outer-" or "inner-" when that happens on
// one side of a join, where a filter stage also compacts the saved join
// nodes.
func rangeBindSite(op plan.Op, col string) string {
	switch op := op.(type) {
	case *plan.Unit:
		if op.U.Cols.Has(col) {
			return "unit"
		}
	case *plan.Lookup:
		return rangeBindSite(op.Sub, col)
	case *plan.Scan:
		switch key := op.Edge.Key; {
		case !key.Has(col):
			return rangeBindSite(op.Sub, col)
		case key.Len() > 1:
			return "key"
		case op.Edge.DS.Ordered():
			return "seek"
		default:
			return "filter"
		}
	case *plan.LR:
		return rangeBindSite(op.Sub, col)
	case *plan.Join:
		outer, inner := op.LeftOp, op.RightOp
		if op.First == plan.Right {
			outer, inner = inner, outer
		}
		if site := rangeBindSite(outer, col); site != "" {
			return "outer-" + site
		}
		if site := rangeBindSite(inner, col); site != "" {
			return "inner-" + site
		}
	}
	return ""
}

// subsets returns every subset of names, the empty one first.
func subsets(names []string) [][]string {
	res := make([][]string, 0, 1<<len(names))
	for mask := 0; mask < 1<<len(names); mask++ {
		var s []string
		for i, n := range names {
			if mask&(1<<i) != 0 {
				s = append(s, n)
			}
		}
		res = append(res, s)
	}
	return res
}

func graphSpecInternal() *Spec {
	return &Spec{
		Name: "edges",
		Columns: []ColDef{
			{Name: "src", Type: IntCol},
			{Name: "dst", Type: IntCol},
			{Name: "weight", Type: IntCol},
		},
		FDs: paperex.GraphFDs(),
	}
}

// An oracleCase is one decomposition of the oracle table: how to build it on
// each engine, the i'th FD-respecting tuple to load, and the mutations to
// apply between the two sweeps (remove patterns; key pattern → new values).
type oracleCase struct {
	name    string
	spec    func() *Spec
	d       func() *decomp.Decomp
	shard   ShardOptions
	gen     func(i int, rnd *rand.Rand) relation.Tuple
	removes []relation.Tuple
	updates [][2]relation.Tuple

	// rangeOnly cases join the table for the range sweep alone, once the
	// mutations are in: the equality table stays the 408 pairs it was.
	rangeOnly bool
}

// TestExecutorOracle is the one engine-level executor differential: every
// query shape (each input column subset × each non-empty output subset) of
// the scheduler and the three Figure 12 graph decompositions, on a hit and
// a miss pattern, before and after a round of pattern removes and key
// updates checked against the internal/relation oracle. The bare relation,
// a SyncRelation and a ShardedRelation over the same decomposition answer
// every query too, so the point plan and shard routing sit in the same
// table as the executors they bypass.
//
// The range differential rides the same cases — plus, for the range sweep
// only, the range tests' own decompositions (an AVL and a skip list that
// seek, a dlist that filters, Figure 2's join) and spec/flows.rel: every
// range column × every input subset of the other columns × every non-empty
// output subset, with the seven intervals of rangeBounds around a stored
// value on a hit pattern and a window on a miss (checkRangeTiers). No batch
// program may bail, and the plans met must between them bind the range
// column in every way a range program constrains it.
func TestExecutorOracle(t *testing.T) {
	sched := oracleCase{
		name:  "scheduler",
		spec:  schedSpecInternal,
		d:     paperex.SchedulerDecomp,
		shard: ShardOptions{ShardKey: []string{"ns", "pid"}, Shards: 4},
		gen: func(i int, rnd *rand.Rand) relation.Tuple {
			return paperex.SchedulerTuple(int64(i%8), int64(i), []int64{paperex.StateS, paperex.StateR}[rnd.Intn(2)], int64(rnd.Intn(50)))
		},
		removes: []relation.Tuple{
			relation.NewTuple(relation.BindInt("ns", 1)),
			relation.NewTuple(relation.BindInt("state", paperex.StateR)),
		},
		updates: [][2]relation.Tuple{{
			relation.NewTuple(relation.BindInt("ns", 2), relation.BindInt("pid", 2)),
			relation.NewTuple(relation.BindInt("cpu", 123)),
		}},
	}
	graph := func(name string, d func() *decomp.Decomp) oracleCase {
		return oracleCase{
			name:  name,
			spec:  graphSpecInternal,
			d:     d,
			shard: ShardOptions{ShardKey: []string{"src", "dst"}, Shards: 4},
			gen: func(i int, rnd *rand.Rand) relation.Tuple {
				return paperex.EdgeTuple(int64(i%8), int64(i/8), int64(rnd.Intn(5)))
			},
			removes: []relation.Tuple{
				relation.NewTuple(relation.BindInt("src", 1)),
				relation.NewTuple(relation.BindInt("dst", 3)),
			},
			updates: [][2]relation.Tuple{{
				relation.NewTuple(relation.BindInt("src", 2), relation.BindInt("dst", 2)),
				relation.NewTuple(relation.BindInt("weight", 77)),
			}},
		}
	}
	cases := []oracleCase{
		sched,
		graph("graph1", paperex.GraphDecomp1),
		graph("graph5", paperex.GraphDecomp5),
		graph("graph9", paperex.GraphDecomp9),
	}
	for name, d := range OracleRangeDecomps() {
		tc := sched
		tc.name, tc.d, tc.rangeOnly = "range-"+name, func() *decomp.Decomp { return d }, true
		cases = append(cases, tc)
	}
	// A join whose sides hold different unit columns: whichever side the
	// planner runs second binds its column on the inner side, by a unit, so
	// the filter stage is met after a join's reload too.
	split := sched
	split.name, split.rangeOnly = "range-split-units", true
	split.d = func() *decomp.Decomp {
		return decomp.MustNew([]decomp.Binding{
			decomp.Let("l", []string{"ns", "pid"}, []string{"state"}, decomp.U("state")),
			decomp.Let("r", []string{"ns", "pid"}, []string{"cpu"}, decomp.U("cpu")),
			decomp.Let("x", nil, []string{"ns", "pid", "state", "cpu"},
				decomp.J(
					decomp.M(dstruct.AVLKind, "l", "ns", "pid"),
					decomp.M(dstruct.HTableKind, "r", "ns", "pid"))),
		}, "x")
	}
	cases = append(cases, split)
	flowsSpec, flowsDecomp := OracleFlowsRel(t)
	cases = append(cases, oracleCase{
		name:  "flows.rel",
		spec:  func() *Spec { return flowsSpec },
		d:     func() *decomp.Decomp { return flowsDecomp },
		shard: ShardOptions{ShardKey: []string{"local", "foreign"}, Shards: 4},
		gen: func(i int, rnd *rand.Rand) relation.Tuple {
			return relation.NewTuple(relation.BindInt("local", int64(i%8)), relation.BindInt("foreign", int64(i)),
				relation.BindInt("packets", int64(rnd.Intn(5))), relation.BindInt("bytes", int64(rnd.Intn(50))))
		},
		removes: []relation.Tuple{relation.NewTuple(relation.BindInt("local", 1))},
		updates: [][2]relation.Tuple{{
			relation.NewTuple(relation.BindInt("local", 2), relation.BindInt("foreign", 2)),
			relation.NewTuple(relation.BindInt("bytes", 777)),
		}},
		rangeOnly: true,
	})

	pairs, rangeChecks := 0, 0
	sites := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := New(tc.spec(), tc.d())
			if err != nil {
				t.Fatal(err)
			}
			syncR := NewSync(MustNew(tc.spec(), tc.d()))
			sharded, err := NewSharded(tc.spec(), tc.d(), tc.shard)
			if err != nil {
				t.Fatal(err)
			}
			engines := map[string]tierEngine{"bare": r, "sync": syncR, "sharded": sharded}
			// One sink across the engines: the range sweep must never have
			// fallen off the vectorized tier (asserted at the end).
			m := &obs.Metrics{}
			for _, e := range engines {
				e.SetMetrics(m)
			}
			oracle := relation.Empty(r.spec.Cols())
			rnd := rand.New(rand.NewSource(41))
			for i := 0; i < 64; i++ {
				tup := tc.gen(i, rnd)
				if err := oracle.Insert(tup); err != nil {
					t.Fatal(err)
				}
				for _, e := range engines {
					if err := e.Insert(tup); err != nil {
						t.Fatal(err)
					}
				}
			}

			names := r.spec.Cols().Names()
			sweep := func() {
				stored := oracle.All()
				for _, in := range subsets(names) {
					inCols := relation.NewCols(in...)
					hit := stored[rnd.Intn(len(stored))].Project(inCols)
					miss := tc.gen(1000+rnd.Intn(8), rnd).Project(inCols)
					for _, out := range subsets(names)[1:] {
						for _, pat := range []relation.Tuple{hit, miss} {
							if checkTiers(t, r, engines, oracle, pat, out) {
								t.Fatalf("%v → %v pattern %v: batch program bailed on a well-formed instance", in, out, pat)
							}
						}
					}
				}
			}
			sweepRange := func() {
				stored := oracle.All()
				for _, col := range names {
					var others []string
					for _, n := range names {
						if n != col {
							others = append(others, n)
						}
					}
					for _, in := range subsets(others) {
						inCols := relation.NewCols(in...)
						at := stored[rnd.Intn(len(stored))]
						hit, miss := at.Project(inCols), tc.gen(1000+rnd.Intn(8), rnd).Project(inCols)
						bounds := rangeBounds(at.MustGet(col).Int())
						for _, out := range subsets(names)[1:] {
							cand, err := r.planShape(inCols, relation.NewCols(out...), col)
							if err != nil {
								t.Fatal(err)
							}
							sites[rangeBindSite(cand.Op, col)] = true
							check := func(pat relation.Tuple, lo, hi *value.Value) {
								if checkRangeTiers(t, r, engines, oracle, pat, col, lo, hi, out) {
									t.Fatalf("%v → %v range %s pattern %v: batch program bailed on a well-formed instance", in, out, col, pat)
								}
							}
							for _, b := range bounds {
								check(hit, b[0], b[1])
							}
							check(miss, bounds[3][0], bounds[3][1]) // the window, on a pattern nothing matches
							rangeChecks += len(bounds) + 1
						}
					}
				}
			}
			// The range-only cases are swept once, on the mutated instance.
			if !tc.rangeOnly {
				sweep()
				sweepRange()
				pairs += (1 << len(names)) * (1<<len(names) - 1)
			}

			// Mutations ride the same queryFunc machinery (Remove gathers its
			// doomed tuples, Update locates its match): every engine must stay
			// in lockstep with the relational oracle, and the executors must
			// still agree on the mutated instance.
			for _, pat := range tc.removes {
				want := oracle.Remove(pat)
				for name, e := range engines {
					if n, err := e.Remove(pat); err != nil || n != want {
						t.Fatalf("%s Remove(%v) = %d, %v; oracle removed %d", name, pat, n, err, want)
					}
				}
			}
			for _, up := range tc.updates {
				want := oracle.Update(up[0], up[1])
				for name, e := range engines {
					if n, err := e.Update(up[0], up[1]); err != nil || n != want {
						t.Fatalf("%s Update(%v, %v) = %d, %v; oracle updated %d", name, up[0], up[1], n, err, want)
					}
				}
			}
			if !tc.rangeOnly {
				sweep()
			}
			sweepRange()
			for name, e := range engines {
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if got := m.Snapshot(); got.VecFallbacks != 0 || got.ExecInterpreted != 0 || got.ExecCompiled != 0 {
				t.Fatalf("a read left the vectorized tier: %s", got.String())
			}
		})
	}
	t.Logf("%d range queries compared on interpreter, vectorized and three engines; range column bound at %v", rangeChecks, slices.Sorted(maps.Keys(sites)))
	// Extraction (seek, filter) and the filter stage (key, unit), the latter
	// also with a join's saved nodes to compact (outer-) and after a join's
	// reload (inner-): a planner change that drops one of these from the
	// table wants a new case here, not a narrower check.
	for _, site := range []string{"seek", "filter", "key", "unit", "outer-unit", "inner-unit", "inner-seek"} {
		if !sites[site] {
			t.Errorf("no range plan in the table binds its range column at %q", site)
		}
	}
	// The parent's knob-flipping differentials covered 13 (decomposition,
	// shape) pairs; this table must never cover fewer.
	t.Logf("%d (decomposition, shape) pairs compared on interpreter, vectorized and three engines", pairs)
	if pairs < 13 {
		t.Fatalf("oracle table shrank to %d pairs", pairs)
	}
}
