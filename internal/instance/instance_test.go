package instance_test

import (
	"math/rand"
	"testing"

	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/fd"
	"repro/internal/instance"
	"repro/internal/paperex"
	"repro/internal/relation"
)

func newSched(t *testing.T) *instance.Instance {
	t.Helper()
	d := paperex.SchedulerDecomp()
	if err := d.CheckAdequate(paperex.SchedulerCols(), paperex.SchedulerFDs()); err != nil {
		t.Fatal(err)
	}
	return instance.New(d, paperex.SchedulerFDs())
}

func mustInsert(t *testing.T, in *instance.Instance, tup relation.Tuple) {
	t.Helper()
	ok, err := in.Insert(tup)
	if err != nil {
		t.Fatalf("Insert(%v): %v", tup, err)
	}
	if !ok {
		t.Fatalf("Insert(%v) reported no change", tup)
	}
}

// removeOK removes tup, failing the test on error, and reports presence.
func removeOK(t *testing.T, in *instance.Instance, tup relation.Tuple) bool {
	t.Helper()
	ok, err := in.RemoveTuple(tup)
	if err != nil {
		t.Fatalf("RemoveTuple(%v): %v", tup, err)
	}
	return ok
}

func checkAgainst(t *testing.T, in *instance.Instance, want *relation.Relation) {
	t.Helper()
	if err := in.CheckWF(); err != nil {
		t.Fatalf("well-formedness: %v", err)
	}
	got := in.Relation()
	if !got.Equal(want) {
		t.Fatalf("α(instance) =\n%vwant\n%v", got, want)
	}
	if in.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", in.Len(), want.Len())
	}
}

// TestEmptyInstance checks dempty (Lemma 3): the fresh instance is
// well-formed and represents the empty relation.
func TestEmptyInstance(t *testing.T) {
	in := newSched(t)
	checkAgainst(t, in, relation.Empty(paperex.SchedulerCols()))
}

// TestPaperFigure9 replays the paper's Figure 9: inserting
// 〈ns:2, pid:1, state:S, cpu:5〉 into the two-process instance produces the
// three-process instance, and removing it restores the original.
func TestPaperFigure9(t *testing.T) {
	in := newSched(t)
	oracle := relation.Empty(paperex.SchedulerCols())

	t1 := paperex.SchedulerTuple(1, 1, paperex.StateS, 7)
	t2 := paperex.SchedulerTuple(1, 2, paperex.StateR, 4)
	t3 := paperex.SchedulerTuple(2, 1, paperex.StateS, 5)

	for _, tup := range []relation.Tuple{t1, t2} {
		mustInsert(t, in, tup)
		_ = oracle.Insert(tup)
	}
	checkAgainst(t, in, oracle) // instance (a)

	mustInsert(t, in, t3)
	_ = oracle.Insert(t3)
	checkAgainst(t, in, oracle) // instance (b) — the full r_s of Equation (1)

	if !removeOK(t, in, t3) {
		t.Fatalf("RemoveTuple(t3) = false")
	}
	oracle.Remove(t3)
	checkAgainst(t, in, oracle) // back to instance (a)
}

func TestInsertIdempotent(t *testing.T) {
	in := newSched(t)
	tup := paperex.SchedulerTuple(1, 1, paperex.StateS, 7)
	mustInsert(t, in, tup)
	changed, err := in.Insert(tup)
	if err != nil || changed {
		t.Errorf("second insert: changed=%v err=%v", changed, err)
	}
	if in.Len() != 1 {
		t.Errorf("Len = %d", in.Len())
	}
	if err := in.CheckWF(); err != nil {
		t.Error(err)
	}
}

func TestInsertWrongColumns(t *testing.T) {
	in := newSched(t)
	if _, err := in.Insert(relation.NewTuple(relation.BindInt("ns", 1))); err == nil {
		t.Errorf("partial insert accepted")
	}
}

func TestInsertFDViolationDetected(t *testing.T) {
	in := newSched(t)
	mustInsert(t, in, paperex.SchedulerTuple(1, 1, paperex.StateS, 7))
	// Same ns, pid, state but different cpu: the shared unit w disagrees.
	if _, err := in.Insert(paperex.SchedulerTuple(1, 1, paperex.StateS, 9)); err == nil {
		t.Errorf("FD-violating insert accepted")
	}
	// The failed insert must not have corrupted the instance.
	if err := in.CheckWF(); err != nil {
		t.Errorf("instance corrupted by rejected insert: %v", err)
	}
}

func TestContains(t *testing.T) {
	in := newSched(t)
	t1 := paperex.SchedulerTuple(1, 1, paperex.StateS, 7)
	if in.Contains(t1) {
		t.Errorf("empty instance contains %v", t1)
	}
	mustInsert(t, in, t1)
	if !in.Contains(t1) {
		t.Errorf("instance does not contain inserted tuple")
	}
	if in.Contains(paperex.SchedulerTuple(1, 1, paperex.StateS, 8)) {
		t.Errorf("instance contains tuple with wrong cpu")
	}
	if in.Contains(paperex.SchedulerTuple(1, 1, paperex.StateR, 7)) {
		t.Errorf("instance contains tuple with wrong state")
	}
}

func TestRemoveAbsent(t *testing.T) {
	in := newSched(t)
	if removeOK(t, in, paperex.SchedulerTuple(1, 1, paperex.StateS, 7)) {
		t.Errorf("removed absent tuple")
	}
	mustInsert(t, in, paperex.SchedulerTuple(1, 1, paperex.StateS, 7))
	// Same key, different cpu: not the stored tuple, must not remove.
	if removeOK(t, in, paperex.SchedulerTuple(1, 1, paperex.StateS, 9)) {
		t.Errorf("removed tuple with mismatched cpu")
	}
	if in.Len() != 1 {
		t.Errorf("Len = %d", in.Len())
	}
}

func TestRemoveLastTupleEmptiesInstance(t *testing.T) {
	in := newSched(t)
	tup := paperex.SchedulerTuple(1, 1, paperex.StateS, 7)
	mustInsert(t, in, tup)
	if !removeOK(t, in, tup) {
		t.Fatalf("remove failed")
	}
	checkAgainst(t, in, relation.Empty(paperex.SchedulerCols()))
	// Reinsertion after emptying must work.
	mustInsert(t, in, tup)
	checkAgainst(t, in, relation.FromTuples(paperex.SchedulerCols(), tup))
}

func TestRemoveWithoutCleanup(t *testing.T) {
	in := newSched(t)
	in.CleanupEmpty = false
	oracle := relation.Empty(paperex.SchedulerCols())
	tups := []relation.Tuple{
		paperex.SchedulerTuple(1, 1, paperex.StateS, 7),
		paperex.SchedulerTuple(1, 2, paperex.StateR, 4),
		paperex.SchedulerTuple(2, 1, paperex.StateS, 5),
	}
	for _, tup := range tups {
		mustInsert(t, in, tup)
		_ = oracle.Insert(tup)
	}
	for _, tup := range tups[:2] {
		removeOK(t, in, tup)
		oracle.Remove(tup)
		if got := in.Relation(); !got.Equal(oracle) {
			t.Fatalf("without cleanup: α =\n%vwant\n%v", got, oracle)
		}
	}
}

func TestUpdateInPlace(t *testing.T) {
	in := newSched(t)
	tup := paperex.SchedulerTuple(1, 1, paperex.StateS, 7)
	mustInsert(t, in, tup)

	// cpu lives only in the shared unit w: updatable in place.
	if !in.CanUpdateInPlace(relation.NewCols("cpu")) {
		t.Fatalf("cpu not updatable in place")
	}
	u := relation.NewTuple(relation.BindInt("cpu", 99))
	if ok, err := in.UpdateInPlace(tup, u); err != nil || !ok {
		t.Fatalf("UpdateInPlace = %v, %v", ok, err)
	}
	want := relation.FromTuples(paperex.SchedulerCols(), paperex.SchedulerTuple(1, 1, paperex.StateS, 99))
	checkAgainst(t, in, want)

	// state is a map key (the vector edge) and part of w's bound columns:
	// not updatable in place.
	if in.CanUpdateInPlace(relation.NewCols("state")) {
		t.Errorf("state reported updatable in place")
	}
	if ok, err := in.UpdateInPlace(paperex.SchedulerTuple(1, 1, paperex.StateS, 99), relation.NewTuple(relation.BindString("state", "R"))); err != nil || ok {
		t.Errorf("UpdateInPlace key-column update = %v, %v", ok, err)
	}
}

func TestSharedNodeRefcounts(t *testing.T) {
	// In the scheduler decomposition node w is shared by the y and z paths:
	// after one insert its refcount must be 2; after removal everything is
	// released. CheckWF verifies counts against observed in-degrees.
	in := newSched(t)
	tup := paperex.SchedulerTuple(1, 1, paperex.StateS, 7)
	mustInsert(t, in, tup)
	if err := in.CheckWF(); err != nil {
		t.Fatal(err)
	}
	removeOK(t, in, tup)
	if err := in.CheckWF(); err != nil {
		t.Fatal(err)
	}
}

// graph decompositions share the weight node between forward and backward
// paths; exercise them too.
func TestGraphDecompositions(t *testing.T) {
	for name, d := range map[string]*decomp.Decomp{
		"decomp1": paperex.GraphDecomp1(),
		"decomp5": paperex.GraphDecomp5(),
		"decomp9": paperex.GraphDecomp9(),
	} {
		t.Run(name, func(t *testing.T) {
			in := instance.New(d, paperex.GraphFDs())
			oracle := relation.Empty(paperex.GraphCols())
			edges := []relation.Tuple{
				paperex.EdgeTuple(1, 2, 10),
				paperex.EdgeTuple(1, 3, 20),
				paperex.EdgeTuple(2, 3, 30),
				paperex.EdgeTuple(3, 1, 40),
			}
			for _, e := range edges {
				mustInsert(t, in, e)
				_ = oracle.Insert(e)
			}
			checkAgainst(t, in, oracle)
			for _, e := range edges[:2] {
				if !removeOK(t, in, e) {
					t.Fatalf("remove %v failed", e)
				}
				oracle.Remove(e)
				checkAgainst(t, in, oracle)
			}
		})
	}
}

// TestLemma1Adequacy exercises Lemma 1: an adequate decomposition can
// represent any FD-satisfying relation — build it by inserts, check α and
// well-formedness.
func TestLemma1Adequacy(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	d := paperex.SchedulerDecomp()
	fds := paperex.SchedulerFDs()
	for trial := 0; trial < 30; trial++ {
		in := instance.New(d, fds)
		oracle := relation.Empty(paperex.SchedulerCols())
		for i := 0; i < 25; i++ {
			tup := paperex.SchedulerTuple(
				int64(rnd.Intn(3)), int64(rnd.Intn(4)),
				[]int64{paperex.StateR, paperex.StateS}[rnd.Intn(2)], int64(rnd.Intn(50)))
			if !fds.HoldsOnInsert(oracle, tup) {
				continue
			}
			_ = oracle.Insert(tup)
			if _, err := in.Insert(tup); err != nil {
				t.Fatalf("trial %d: insert %v: %v", trial, tup, err)
			}
		}
		checkAgainst(t, in, oracle)
	}
}

// TestLemma4Preservation drives random mixed operation sequences on
// instance and oracle in lockstep, checking well-formedness and α after
// every operation (Lemma 4 / Theorem 5).
func TestLemma4Preservation(t *testing.T) {
	configs := []struct {
		name  string
		d     func() *decomp.Decomp
		cols  relation.Cols
		fds   fd.Set
		tuple func(r *rand.Rand) relation.Tuple
	}{
		{
			"scheduler", paperex.SchedulerDecomp, paperex.SchedulerCols(), paperex.SchedulerFDs(),
			func(r *rand.Rand) relation.Tuple {
				return paperex.SchedulerTuple(int64(r.Intn(2)), int64(r.Intn(3)),
					[]int64{paperex.StateR, paperex.StateS}[r.Intn(2)], int64(r.Intn(10)))
			},
		},
		{
			"graph5", paperex.GraphDecomp5, paperex.GraphCols(), paperex.GraphFDs(),
			func(r *rand.Rand) relation.Tuple {
				return paperex.EdgeTuple(int64(r.Intn(4)), int64(r.Intn(4)), int64(r.Intn(5)))
			},
		},
		{
			"graph9", paperex.GraphDecomp9, paperex.GraphCols(), paperex.GraphFDs(),
			func(r *rand.Rand) relation.Tuple {
				return paperex.EdgeTuple(int64(r.Intn(4)), int64(r.Intn(4)), int64(r.Intn(5)))
			},
		},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(23))
			in := instance.New(cfg.d(), cfg.fds)
			oracle := relation.Empty(cfg.cols)
			for step := 0; step < 400; step++ {
				tup := cfg.tuple(rnd)
				if rnd.Intn(3) == 0 {
					removed := removeOK(t, in, tup)
					want := oracle.Contains(tup)
					if removed != want {
						t.Fatalf("step %d: RemoveTuple(%v) = %v, want %v", step, tup, removed, want)
					}
					oracle.Remove(tup)
				} else {
					if !cfg.fds.HoldsOnInsert(oracle, tup) {
						continue
					}
					_ = oracle.Insert(tup)
					if _, err := in.Insert(tup); err != nil {
						t.Fatalf("step %d: insert %v: %v", step, tup, err)
					}
				}
				if step%23 == 0 {
					if err := in.CheckWF(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if !in.Relation().Equal(oracle) {
						t.Fatalf("step %d: α diverged from oracle", step)
					}
				}
			}
			if err := in.CheckWF(); err != nil {
				t.Fatal(err)
			}
			if !in.Relation().Equal(oracle) {
				t.Fatalf("final α diverged")
			}
		})
	}
}

// TestDeepDecomposition exercises a three-level path with a longer chain of
// bound columns.
func TestDeepDecomposition(t *testing.T) {
	cols := relation.NewCols("a", "b", "c", "d")
	fds := fd.NewSet(fd.FD{From: relation.NewCols("a", "b", "c"), To: relation.NewCols("d")})
	d := decomp.MustNew([]decomp.Binding{
		decomp.Let("w", []string{"a", "b", "c"}, []string{"d"}, decomp.U("d")),
		decomp.Let("v", []string{"a", "b"}, []string{"c", "d"}, decomp.M(dstruct.AVLKind, "w", "c")),
		decomp.Let("u", []string{"a"}, []string{"b", "c", "d"}, decomp.M(dstruct.SListKind, "v", "b")),
		decomp.Let("x", nil, []string{"a", "b", "c", "d"}, decomp.M(dstruct.HTableKind, "u", "a")),
	}, "x")
	if err := d.CheckAdequate(cols, fds); err != nil {
		t.Fatal(err)
	}
	in := instance.New(d, fds)
	oracle := relation.Empty(cols)
	rnd := rand.New(rand.NewSource(31))
	for i := 0; i < 150; i++ {
		tup := relation.NewTuple(
			relation.BindInt("a", int64(rnd.Intn(3))),
			relation.BindInt("b", int64(rnd.Intn(3))),
			relation.BindInt("c", int64(rnd.Intn(3))),
			relation.BindInt("d", int64(rnd.Intn(3))))
		if rnd.Intn(4) == 0 {
			removeOK(t, in, tup)
			oracle.Remove(tup)
		} else if fds.HoldsOnInsert(oracle, tup) {
			_ = oracle.Insert(tup)
			if _, err := in.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkAgainst(t, in, oracle)
}

func TestReinsertAfterRemoveWithoutCleanup(t *testing.T) {
	// With empty-map cleanup disabled, removal leaves empty-but-linked
	// nodes behind; reinsertion must find and reuse them instead of
	// creating duplicates.
	in := newSched(t)
	in.CleanupEmpty = false
	tup := paperex.SchedulerTuple(1, 1, paperex.StateS, 7)
	mustInsert(t, in, tup)
	if !removeOK(t, in, tup) {
		t.Fatal("remove failed")
	}
	mustInsert(t, in, tup)
	checkAgainst(t, in, relation.FromTuples(paperex.SchedulerCols(), tup))
	// And the tuple can change state on reinsertion after removal.
	if !removeOK(t, in, tup) {
		t.Fatal("second remove failed")
	}
	tup2 := paperex.SchedulerTuple(1, 1, paperex.StateR, 9)
	mustInsert(t, in, tup2)
	checkAgainst(t, in, relation.FromTuples(paperex.SchedulerCols(), tup2))
}

// TestInsertRejectsSecondValuation: an FD-violating insert whose unit
// payload coincides with the stored tuple's — same (ns, pid) and cpu, a
// different state — trips no unit or edge conflict. Its walk would link the
// existing shared node w from a fresh z, reaching w under a second
// valuation of its bound columns (the corruption rule WFLET/AMAP forbids,
// which wf_test.go builds by hand). The walk rejects that link, and the
// instance stays well-formed and unchanged.
func TestInsertRejectsSecondValuation(t *testing.T) {
	in := newSched(t)
	stored := paperex.SchedulerTuple(0, 1, paperex.StateS, 5)
	mustInsert(t, in, stored)
	if _, err := in.Insert(paperex.SchedulerTuple(0, 1, paperex.StateR, 5)); err == nil {
		t.Fatal("insert reaching w under a second state accepted")
	}
	if err := in.CheckWF(); err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, in, relation.FromTuples(paperex.SchedulerCols(), stored))
}

// TestInsertRejectsSecondKeyOfDeterminedMap: in a relation with two keys
// (k1 → k2, v and k2 → k1, v), node z of k2 = 3 maps k1 to the shared w, and
// Bound(z) = {k2} determines k1, so z holds one key at most. A second tuple
// with k2 = 3 allocates fresh nodes everywhere else and would add a second
// key to z; the walk rejects it.
func TestInsertRejectsSecondKeyOfDeterminedMap(t *testing.T) {
	cols := relation.NewCols("k1", "k2", "v")
	fds := fd.NewSet(
		fd.FD{From: relation.NewCols("k1"), To: relation.NewCols("k2", "v")},
		fd.FD{From: relation.NewCols("k2"), To: relation.NewCols("k1", "v")},
	)
	d := decomp.MustNew([]decomp.Binding{
		decomp.Let("w", []string{"k1", "k2"}, []string{"v"}, decomp.U("v")),
		decomp.Let("y", []string{"k1"}, []string{"k2", "v"}, decomp.M(dstruct.HTableKind, "w", "k2")),
		decomp.Let("z", []string{"k2"}, []string{"k1", "v"}, decomp.M(dstruct.HTableKind, "w", "k1")),
		decomp.Let("x", nil, []string{"k1", "k2", "v"},
			decomp.J(decomp.M(dstruct.HTableKind, "y", "k1"), decomp.M(dstruct.HTableKind, "z", "k2"))),
	}, "x")
	if err := d.CheckAdequate(cols, fds); err != nil {
		t.Fatal(err)
	}
	in := instance.New(d, fds)
	tup := func(k1, k2, v int64) relation.Tuple {
		return relation.NewTuple(relation.BindInt("k1", k1), relation.BindInt("k2", k2), relation.BindInt("v", v))
	}
	mustInsert(t, in, tup(0, 3, 0))
	if _, err := in.Insert(tup(1, 3, 1)); err == nil {
		t.Fatal("a second tuple with k2 = 3 accepted")
	}
	if err := in.CheckWF(); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, in, tup(1, 4, 1))
	checkAgainst(t, in, relation.FromTuples(cols, tup(0, 3, 0), tup(1, 4, 1)))
}
