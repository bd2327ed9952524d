// Package harness drives the fault-injection plane through the public
// engine and asserts the atomicity contract of every mutation: a mutation
// that fails — because a data structure returned an injected error or
// panicked outright — leaves the relation exactly as it was, well-formed
// (CheckWF), and representing the same abstract relation α as before the
// mutation. This file holds the corpus of paper decompositions (Cases),
// which package core's tests share; the package's tests run over it
//
//   - the exhaustive regimes: a fault at every reachable step of every
//     mutation, in both error and panic mode. Each Exhaust* function is a
//     faultinject.Regime — fresh subject, action, armed sites, contract —
//     handed to the one sweep driver, faultinject.Sweep: Exhaust (bare
//     relation), ExhaustCOW (MVCC tier, both in regimes_test.go),
//     ExhaustWAL, ExhaustWALCheckpoint and ExhaustWALRecovery (durable
//     tier, wal_test.go), ExhaustRepl, ExhaustReplResubscribe and
//     ExhaustReplCatchUp (replication, repl_test.go);
//   - randomized: seed-driven op/fault schedules against a mirror oracle;
//   - concurrent: a sharded engine hammered from several goroutines while
//     faults are armed, for the race detector.
package harness

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/fd"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// A Mutator is the mutation surface the corpus closures drive. Both the
// single-threaded *core.Relation and the MVCC *core.SyncRelation satisfy
// it, so every corpus case exercises the undo-log rollback path and the
// copy-on-write drop path with the same operations.
type Mutator interface {
	Insert(t relation.Tuple) error
	Remove(pat relation.Tuple) (int, error)
	Update(s, u relation.Tuple) (int, error)
}

// A Mutation is one operation under test; Run returns whatever the public
// API returned.
type Mutation struct {
	Name string
	Run  func(r Mutator) error
}

// A Case is one corpus entry: how to build the relation, what to seed it
// with, which mutations to exhaust, and how to generate random operations.
type Case struct {
	Name   string
	Spec   func() *core.Spec
	Decomp func() *decomp.Decomp
	Seed   []relation.Tuple
	Muts   []Mutation
	// Batch is three tuples absent from Seed that the FDs admit together:
	// the insert-batch row of engineMuts commits them as one version.
	Batch []relation.Tuple

	// Gen produces a random full tuple and Key names the update-pattern
	// columns, for the randomized regime.
	Gen func(rnd *rand.Rand) relation.Tuple
	Key []string
}

func intCols(names ...string) []core.ColDef {
	defs := make([]core.ColDef, len(names))
	for i, n := range names {
		defs[i] = core.ColDef{Name: n, Type: core.IntCol}
	}
	return defs
}

func bi(col string, v int64) relation.Binding { return relation.BindInt(col, v) }

// The corpus mutations come in three shapes.
func insertMut(t relation.Tuple) Mutation {
	return Mutation{"insert", func(r Mutator) error { return r.Insert(t) }}
}

func removeMut(name string, pat relation.Tuple) Mutation {
	return Mutation{name, func(r Mutator) error {
		_, err := r.Remove(pat)
		return err
	}}
}

func updateMut(name string, pat, u relation.Tuple) Mutation {
	return Mutation{name, func(r Mutator) error {
		_, err := r.Update(pat, u)
		return err
	}}
}

// schedulerCase is Figure 2(a): the shared-node scheduler decomposition.
func schedulerCase() Case {
	seed := []relation.Tuple{
		paperex.SchedulerTuple(1, 1, paperex.StateS, 7),
		paperex.SchedulerTuple(1, 2, paperex.StateR, 4),
		paperex.SchedulerTuple(2, 1, paperex.StateS, 5),
	}
	return Case{
		Name: "scheduler",
		Spec: func() *core.Spec {
			return &core.Spec{Name: "processes", Columns: intCols("ns", "pid", "state", "cpu"), FDs: paperex.SchedulerFDs()}
		},
		Decomp: paperex.SchedulerDecomp,
		Seed:   seed,
		Batch: []relation.Tuple{
			paperex.SchedulerTuple(3, 1, paperex.StateR, 2),
			paperex.SchedulerTuple(3, 2, paperex.StateS, 3),
			paperex.SchedulerTuple(4, 1, paperex.StateR, 1),
		},
		Muts: []Mutation{
			insertMut(paperex.SchedulerTuple(3, 1, paperex.StateR, 2)),
			removeMut("remove-point", seed[0]),
			removeMut("remove-pattern", relation.NewTuple(bi("ns", 1))),
			updateMut("update-inplace", relation.NewTuple(bi("ns", 1), bi("pid", 1)), relation.NewTuple(bi("cpu", 9))),
			updateMut("update-replace", relation.NewTuple(bi("ns", 1), bi("pid", 1)), relation.NewTuple(bi("state", paperex.StateR))),
		},
		Gen: func(rnd *rand.Rand) relation.Tuple {
			return paperex.SchedulerTuple(rnd.Int63n(3), rnd.Int63n(3), rnd.Int63n(2), rnd.Int63n(4))
		},
		Key: []string{"ns", "pid"},
	}
}

// graphCase builds one corpus entry per Figure 12 decomposition shape:
// decomposition 1 (a chain), 5 (a shared unit under two access paths), and
// 9 (unshared left/right units).
func graphCase(name string, d func() *decomp.Decomp) Case {
	seed := []relation.Tuple{
		paperex.EdgeTuple(1, 2, 10),
		paperex.EdgeTuple(1, 3, 11),
		paperex.EdgeTuple(2, 3, 12),
	}
	return Case{
		Name: name,
		Spec: func() *core.Spec {
			return &core.Spec{Name: "edges", Columns: intCols("src", "dst", "weight"), FDs: paperex.GraphFDs()}
		},
		Decomp: d,
		Seed:   seed,
		Batch:  []relation.Tuple{paperex.EdgeTuple(3, 1, 13), paperex.EdgeTuple(3, 2, 14), paperex.EdgeTuple(4, 1, 15)},
		Muts: []Mutation{
			insertMut(paperex.EdgeTuple(3, 1, 13)),
			removeMut("remove-point", seed[0]),
			removeMut("remove-pattern", relation.NewTuple(bi("src", 1))),
			updateMut("update-inplace", relation.NewTuple(bi("src", 2), bi("dst", 3)), relation.NewTuple(bi("weight", 99))),
		},
		Gen: func(rnd *rand.Rand) relation.Tuple {
			return paperex.EdgeTuple(rnd.Int63n(3), rnd.Int63n(3), rnd.Int63n(5))
		},
		Key: []string{"src", "dst"},
	}
}

// deepCase is the four-level chain over {a,b,c,d} with abc → d: the longest
// mutation walks in the corpus (most injection steps per operation).
func deepCase() Case {
	dcmp := func() *decomp.Decomp {
		return decomp.MustNew([]decomp.Binding{
			decomp.Let("w", []string{"a", "b", "c"}, []string{"d"}, decomp.U("d")),
			decomp.Let("v", []string{"a", "b"}, []string{"c", "d"}, decomp.M(dstruct.AVLKind, "w", "c")),
			decomp.Let("u", []string{"a"}, []string{"b", "c", "d"}, decomp.M(dstruct.SListKind, "v", "b")),
			decomp.Let("x", nil, []string{"a", "b", "c", "d"}, decomp.M(dstruct.HTableKind, "u", "a")),
		}, "x")
	}
	tup := func(a, b, c, d int64) relation.Tuple {
		return relation.NewTuple(bi("a", a), bi("b", b), bi("c", c), bi("d", d))
	}
	seed := []relation.Tuple{tup(1, 1, 1, 5), tup(1, 1, 2, 6), tup(1, 2, 1, 7), tup(2, 1, 1, 8)}
	return Case{
		Name: "deep-chain",
		Spec: func() *core.Spec {
			return &core.Spec{
				Name: "deep", Columns: intCols("a", "b", "c", "d"),
				FDs: fd.NewSet(fd.FD{From: relation.NewCols("a", "b", "c"), To: relation.NewCols("d")}),
			}
		},
		Decomp: dcmp,
		Seed:   seed,
		Batch:  []relation.Tuple{tup(2, 2, 2, 9), tup(2, 2, 3, 1), tup(3, 1, 1, 2)},
		Muts: []Mutation{
			insertMut(tup(2, 2, 2, 9)),
			removeMut("remove-point", seed[0]),
			removeMut("remove-pattern", relation.NewTuple(bi("a", 1), bi("b", 1))),
			updateMut("update-inplace", relation.NewTuple(bi("a", 1), bi("b", 1), bi("c", 1)), relation.NewTuple(bi("d", 42))),
		},
		Gen: func(rnd *rand.Rand) relation.Tuple {
			return tup(rnd.Int63n(3), rnd.Int63n(3), rnd.Int63n(3), rnd.Int63n(3))
		},
		Key: []string{"a", "b", "c"},
	}
}

// twoKeyCase has two candidate keys (k1 → k2,v and k2 → k1,v) and a shared
// unit reached through both key paths — the shape where a remove+reinsert
// update can fail half-way and must compensate.
func twoKeyCase() Case {
	dcmp := func() *decomp.Decomp {
		return decomp.MustNew([]decomp.Binding{
			decomp.Let("w", []string{"k1", "k2"}, []string{"v"}, decomp.U("v")),
			decomp.Let("y", []string{"k1"}, []string{"k2", "v"}, decomp.M(dstruct.HTableKind, "w", "k2")),
			decomp.Let("z", []string{"k2"}, []string{"k1", "v"}, decomp.M(dstruct.HTableKind, "w", "k1")),
			decomp.Let("x", nil, []string{"k1", "k2", "v"},
				decomp.J(decomp.M(dstruct.HTableKind, "y", "k1"), decomp.M(dstruct.HTableKind, "z", "k2"))),
		}, "x")
	}
	tup := func(k1, k2, v int64) relation.Tuple {
		return relation.NewTuple(bi("k1", k1), bi("k2", k2), bi("v", v))
	}
	seed := []relation.Tuple{tup(1, 1, 10), tup(2, 5, 20)}
	return Case{
		Name: "two-key",
		Spec: func() *core.Spec {
			return &core.Spec{
				Name: "twokey", Columns: intCols("k1", "k2", "v"),
				FDs: fd.NewSet(
					fd.FD{From: relation.NewCols("k1"), To: relation.NewCols("k2", "v")},
					fd.FD{From: relation.NewCols("k2"), To: relation.NewCols("k1", "v")},
				),
			}
		},
		Decomp: dcmp,
		Seed:   seed,
		Batch:  []relation.Tuple{tup(3, 7, 30), tup(4, 8, 40), tup(5, 9, 50)},
		Muts: []Mutation{
			insertMut(tup(3, 7, 30)),
			removeMut("remove-point", seed[0]),
			updateMut("update-replace", relation.NewTuple(bi("k1", 1)), relation.NewTuple(bi("k2", 9))),
		},
		Gen: func(rnd *rand.Rand) relation.Tuple {
			k := rnd.Int63n(4)
			return tup(k, k+10, rnd.Int63n(5))
		},
		Key: []string{"k1"},
	}
}

// Cases is the harness corpus.
func Cases() []Case {
	return []Case{
		schedulerCase(),
		graphCase("graph-1", paperex.GraphDecomp1),
		graphCase("graph-5", paperex.GraphDecomp5),
		graphCase("graph-9", paperex.GraphDecomp9),
		deepCase(),
		twoKeyCase(),
	}
}
