package core

// The engine-level executor oracle. Nothing selects an execution tier any
// more — dispatch is point → vectorized → closure on bail → interpreter —
// so the tiers the dispatch order shadows (the closure tier runs only when a
// batch program bails, which no relation core.New accepts can provoke) are
// held to the interpreter here, directly: for every (decomposition, shape)
// pair the test takes the candidate the engine itself promoted
// (PlanCandidate) and compares plan.Exec on cand.Op — the Figure 7
// interpreter, the reference — with cand.Prog, cand.Batch and the engines'
// own Query/QueryFunc.

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/decomp"
	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/relation"
)

// tierEngine is the surface the oracle drives on every tier of the engine.
type tierEngine interface {
	Insert(t relation.Tuple) error
	Remove(pat relation.Tuple) (int, error)
	Update(pat, u relation.Tuple) (int, error)
	Query(pat relation.Tuple, out []string) ([]relation.Tuple, error)
	QueryFunc(pat relation.Tuple, out []string, f func(relation.Tuple) bool) error
	CheckInvariants() error
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

	if cand.Prog == nil {
		t.Fatalf("%v → %v plan %s: promoted without a closure program", in, out, cand.Op)
	}
	var rows []relation.Tuple
	cand.Prog.Stream(r.inst, pat, func(tp relation.Tuple) bool {
		rows = append(rows, tp)
		return true
	})
	check("closure", cand.Prog.Collect(r.inst, pat, 0), rows)

	if cand.Batch == nil {
		t.Fatalf("%v → %v plan %s: closure tier compiled but batch tier did not", in, out, cand.Op)
	}
	if br, ok := cand.Batch.Run(r.inst, pat); ok {
		rows = nil
		br.EachTuple(func(tp relation.Tuple) bool {
			rows = append(rows, tp.Project(outCols))
			return true
		})
		check("vectorized", br.Collect(0), rows)
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
			rows = append(rows, tp)
			return true
		}); err != nil {
			t.Fatalf("%s QueryFunc(%v, %v): %v", name, pat, out, err)
		}
		check(name, set, rows)
	}
	return bailed
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
}

// TestExecutorOracle is the one engine-level executor differential: every
// query shape (each input column subset × each non-empty output subset) of
// the scheduler and the three Figure 12 graph decompositions, on a hit and
// a miss pattern, before and after a round of pattern removes and key
// updates checked against the internal/relation oracle. The bare relation,
// a SyncRelation and a ShardedRelation over the same decomposition answer
// every query too, so the point plan and shard routing sit in the same
// table as the executors they bypass.
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

	pairs := 0
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
			sweep()
			pairs += (1 << len(names)) * (1<<len(names) - 1)

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
			sweep()
			for name, e := range engines {
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
	// The parent's knob-flipping differentials covered 13 (decomposition,
	// shape) pairs; this table must never cover fewer.
	t.Logf("%d (decomposition, shape) pairs compared on interpreter, closure, vectorized and three engines", pairs)
	if pairs < 13 {
		t.Fatalf("oracle table shrank to %d pairs", pairs)
	}
}
