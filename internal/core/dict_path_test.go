package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/fd"
	"repro/internal/relation"
	"repro/internal/value"
)

// The tests in this file reach what only the dictionary path of the word
// representation reaches: strings and integers of 64 significant bits, which
// a node or a container entry holds as a reference into the lineage's
// colblock.Dict, where every benchmark column is an inline integer.

// dictSpec is a relation with a string key, a string payload, and an integer
// column wide enough to need the dictionary: name → slot, grp, tag, n.
func dictSpec() *core.Spec {
	return &core.Spec{
		Name: "tagged",
		Columns: []core.ColDef{
			{Name: "slot", Type: core.IntCol},
			{Name: "grp", Type: core.IntCol},
			{Name: "name", Type: core.StringCol},
			{Name: "tag", Type: core.StringCol},
			{Name: "n", Type: core.IntCol},
		},
		FDs: fd.NewSet(fd.FD{From: relation.NewCols("name"), To: relation.NewCols("slot", "grp", "tag", "n")}),
	}
}

// dictDecomps covers every container kind with dictionary-coded keys: a
// vector over slot on top (the one kind that only takes small integers), kb
// over the wide-integer grp, kc over the string name, string and integer
// unit columns at the leaf; and, for the strided layouts, kc keyed by the
// pair (grp, name).
func dictDecomps() map[string]*decomp.Decomp {
	kinds := []dstruct.Kind{dstruct.HTableKind, dstruct.AVLKind, dstruct.DListKind, dstruct.SListKind, dstruct.SortedArrKind, dstruct.SkipListKind}
	out := map[string]*decomp.Decomp{}
	for i, kb := range kinds {
		kc := kinds[(i+1)%len(kinds)]
		out[fmt.Sprintf("vector/%s/%s", kb, kc)] = decomp.MustNew([]decomp.Binding{
			decomp.Let("leaf", []string{"slot", "grp", "name"}, []string{"tag", "n"}, decomp.U("tag", "n")),
			decomp.Let("b", []string{"slot", "grp"}, []string{"name", "tag", "n"}, decomp.M(kc, "leaf", "name")),
			decomp.Let("a", []string{"slot"}, []string{"grp", "name", "tag", "n"}, decomp.M(kb, "b", "grp")),
			decomp.Let("root", nil, []string{"slot", "grp", "name", "tag", "n"}, decomp.M(dstruct.VectorKind, "a", "slot")),
		}, "root")
		out[fmt.Sprintf("pair/%s", kb)] = decomp.MustNew([]decomp.Binding{
			decomp.Let("leaf", []string{"grp", "name"}, []string{"slot", "tag", "n"}, decomp.J(decomp.U("slot", "tag"), decomp.U("n"))),
			decomp.Let("root", nil, []string{"slot", "grp", "name", "tag", "n"}, decomp.M(kb, "leaf", "grp", "name")),
		}, "root")
	}
	return out
}

var dictGrps = []int64{1, 2, 3, 1 << 62, 1<<62 + 5, -(1 << 62) - 1, math.MaxInt64, math.MinInt64}

func dictTuple(rnd *rand.Rand) relation.Tuple {
	return relation.NewTuple(
		relation.BindInt("slot", int64(rnd.Intn(6))),
		relation.BindInt("grp", dictGrps[rnd.Intn(len(dictGrps))]),
		relation.BindString("name", fmt.Sprintf("name-%02d", rnd.Intn(48))),
		relation.BindString("tag", fmt.Sprintf("tag-%d", rnd.Intn(5))),
		relation.BindInt("n", int64(rnd.Intn(20))))
}

// sameSorted fails unless got is want's tuples, already in relation.SortTuples
// order.
func sameSorted(t *testing.T, what string, got, want []relation.Tuple) {
	t.Helper()
	relation.SortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, oracle %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: tuple %d is %v, oracle (in SortTuples order) %v", what, i, got[i], want[i])
		}
	}
}

// dictEngine is what the dictionary differential drives: the bare tier, and
// a sharded engine whose cells each intern under codes of their own.
type dictEngine interface {
	Spec() *core.Spec
	Len() int
	Insert(t relation.Tuple) error
	Update(s, u relation.Tuple) (int, error)
	Remove(s relation.Tuple) (int, error)
	All() ([]relation.Tuple, error)
	Query(s relation.Tuple, out []string) ([]relation.Tuple, error)
	QueryRange(s relation.Tuple, col string, lo, hi *value.Value, out []string) ([]relation.Tuple, error)
	CheckInvariants() error
}

// TestDictionaryPathDifferential runs one random history of inserts, in-place
// updates, updates that move a tuple (remove + insert), pattern removes,
// queries and range queries against the relation oracle, on every container
// kind holding dictionary-coded keys and units. It runs on a bare relation
// and on four cells sharded by name. There, patterns on grp, on tag or on
// nothing fan out, and the cells have interned the same strings and wide
// integers under different codes: merging their answers must compare each
// cell's codes through that cell's own dictionary. Two workers hand the
// cells' held results over from pool goroutines.
func TestDictionaryPathDifferential(t *testing.T) {
	all := dictSpec().Cols()
	engines := map[string]func(d *decomp.Decomp) (dictEngine, error){
		"relation": func(d *decomp.Decomp) (dictEngine, error) { return core.New(dictSpec(), d) },
		"sharded": func(d *decomp.Decomp) (dictEngine, error) {
			return core.NewSharded(dictSpec(), d, core.ShardOptions{ShardKey: []string{"name"}, Shards: 4, Workers: 2})
		},
	}
	for name, d := range dictDecomps() {
		t.Run(name, func(t *testing.T) {
			for eng, build := range engines {
				t.Run(eng, func(t *testing.T) {
					r, err := build(d)
					if err != nil {
						t.Fatal(err)
					}
					dictHistory(t, rand.New(rand.NewSource(11)), r, relation.Empty(all))
				})
			}
		})
	}
}

// dictHistory drives r and oracle through the same random history, checking
// them against each other as it goes.

func dictHistory(t *testing.T, rnd *rand.Rand, r dictEngine, oracle *relation.Relation) {
	byName := func() relation.Tuple {
		return relation.NewTuple(relation.BindString("name", fmt.Sprintf("name-%02d", rnd.Intn(48))))
	}
	for step := 0; step < 600; step++ {
		switch op := rnd.Intn(10); {
		case op < 4:
			tup := dictTuple(rnd)
			if !r.Spec().FDs.HoldsOnInsert(oracle, tup) {
				continue
			}
			_ = oracle.Insert(tup)
			if err := r.Insert(tup); err != nil {
				t.Fatalf("step %d insert %v: %v", step, tup, err)
			}
		case op < 6: // unit columns only: written in place
			s := byName()
			u := relation.NewTuple(relation.BindString("tag", fmt.Sprintf("tag-%d", rnd.Intn(9))))
			if rnd.Intn(2) == 0 {
				u = u.Merge(relation.NewTuple(relation.BindInt("n", int64(rnd.Intn(20)))))
			}
			n, err := r.Update(s, u)
			if want := oracle.Update(s, u); err != nil || n != want {
				t.Fatalf("step %d update %v set %v: %d, %v; oracle %d", step, s, u, n, err, want)
			}
		case op < 7: // a key column: the tuple moves
			s := byName()
			u := relation.NewTuple(relation.BindInt("grp", dictGrps[rnd.Intn(len(dictGrps))]))
			n, err := r.Update(s, u)
			if want := oracle.Update(s, u); err != nil || n != want {
				t.Fatalf("step %d update %v set %v: %d, %v; oracle %d", step, s, u, n, err, want)
			}
		default:
			s := byName()
			if rnd.Intn(3) == 0 {
				s = relation.NewTuple(relation.BindInt("grp", dictGrps[rnd.Intn(len(dictGrps))]),
					relation.BindString("tag", fmt.Sprintf("tag-%d", rnd.Intn(5))))
			}
			n, err := r.Remove(s)
			if want := oracle.Remove(s); err != nil || n != want {
				t.Fatalf("step %d remove %v: %d, %v; oracle %d", step, s, n, err, want)
			}
		}
		if r.Len() != oracle.Len() {
			t.Fatalf("step %d: Len %d, oracle %d", step, r.Len(), oracle.Len())
		}
		if step%20 != 0 {
			continue
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got, err := r.All()
		if err != nil {
			t.Fatal(err)
		}
		sameSorted(t, fmt.Sprintf("step %d All", step), got, oracle.All())
		for _, q := range []struct {
			s   relation.Tuple
			out []string
		}{
			{relation.NewTuple(relation.BindInt("grp", dictGrps[rnd.Intn(len(dictGrps))])), []string{"name", "n"}},
			{relation.NewTuple(relation.BindString("tag", fmt.Sprintf("tag-%d", rnd.Intn(5)))), []string{"grp"}},
			{byName(), []string{"grp", "slot", "tag"}},
			{relation.NewTuple(), []string{"tag", "grp"}},
		} {
			got, err := r.Query(q.s, q.out)
			if err != nil {
				t.Fatal(err)
			}
			sameSorted(t, fmt.Sprintf("step %d Query %v → %v", step, q.s, q.out), got, oracle.Query(q.s, relation.NewCols(q.out...)))
		}
		// Range queries: bounds that are stored values, values the
		// dictionary has never seen, and the widest integers.
		str := func(s string) *value.Value { v := value.OfString(s); return &v }
		for _, q := range []struct {
			col    string
			lo, hi *value.Value
		}{
			{"name", str(fmt.Sprintf("name-%02d", rnd.Intn(48))), str("name-3~never-stored")},
			{"name", str("a"), nil},
			{"grp", vp(3), vp(1<<62 + 5)},
			{"grp", vp(math.MinInt64), vp(2)},
			{"grp", vp(1 << 62), nil},
			{"tag", nil, str("tag-2")},
			{"n", vp(5), vp(12)},
		} {
			out := []string{"name", "grp", q.col}
			got, err := r.QueryRange(relation.NewTuple(), q.col, q.lo, q.hi, out)
			if err != nil {
				t.Fatal(err)
			}
			var want []relation.Tuple
			for _, tup := range oracle.Query(relation.NewTuple(), relation.NewCols(out...)) {
				v := tup.MustGet(q.col)
				if (q.lo == nil || value.Compare(v, *q.lo) >= 0) && (q.hi == nil || value.Compare(v, *q.hi) <= 0) {
					want = append(want, tup)
				}
			}
			sameSorted(t, fmt.Sprintf("step %d QueryRange %s", step, q.col), got, want)
		}
	}
}

// TestNeverInternedValueIsACleanMiss: looking up a string no tuple ever held
// — by Query, by the point plan's descent, by range bound — finds nothing and
// interns nothing.
func TestNeverInternedValueIsACleanMiss(t *testing.T) {
	d := dictDecomps()["vector/htable/avl"]
	r, err := core.New(dictSpec(), d)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		if tup := dictTuple(rnd); r.Spec().FDs.HoldsOnInsert(relation.FromTuples(r.Spec().Cols(), mustAll(t, r)...), tup) {
			if err := r.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
	}
	interned := r.Instance().Stats().DictionaryInterned
	if interned == 0 {
		t.Fatal("fixture interned nothing")
	}
	ghost := relation.NewTuple(relation.BindString("name", "never-stored"))
	if got, err := r.Query(ghost, []string{"grp", "tag"}); err != nil || len(got) != 0 {
		t.Fatalf("Query of a never-interned name: %v, %v", got, err)
	}
	full := relation.NewTuple(relation.BindInt("slot", 1), relation.BindInt("grp", 1), relation.BindString("name", "never-stored"))
	cand, err := r.PlanCandidate([]string{"slot", "grp", "name"}, []string{"tag", "n"})
	if err != nil {
		t.Fatal(err)
	}
	if cand.Point == nil {
		t.Fatal("no point plan for a full key")
	}
	if u, ok := cand.Point.Get(r.Instance(), full); ok {
		t.Fatalf("point descent found %v under a never-interned name", u)
	}
	if n, err := r.Remove(ghost); err != nil || n != 0 {
		t.Fatalf("Remove of a never-interned name: %d, %v", n, err)
	}
	if n, err := r.Update(ghost, relation.NewTuple(relation.BindInt("n", 1))); err != nil || n != 0 {
		t.Fatalf("Update of a never-interned name: %d, %v", n, err)
	}
	lo := value.OfString("zzz-never-stored")
	if got, err := r.QueryRange(relation.NewTuple(), "name", &lo, nil, []string{"name"}); err != nil || len(got) != 0 {
		t.Fatalf("QueryRange above every name: %v, %v", got, err)
	}
	if now := r.Instance().Stats().DictionaryInterned; now != interned {
		t.Fatalf("lookups interned %d values", now-interned)
	}
}

func mustAll(t *testing.T, r *core.Relation) []relation.Tuple {
	t.Helper()
	all, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// TestPinnedSnapshotDecodesWhileWriterInterns: a reader holds one pinned
// Snapshot and keeps decoding its string rows — through Query, QueryRange
// and a point read — while the writer interns enough new strings to
// reallocate the dictionary's table several times, and abandons a fork whose
// insert had already interned its strings when it failed. The snapshot must
// read exactly what it held when it was pinned. Run under -race (make
// ci-race) this is the proof that a version reads the dictionary only
// through the header it captured.
func TestPinnedSnapshotDecodesWhileWriterInterns(t *testing.T) {
	r, err := core.New(dictSpec(), dictDecomps()["vector/avl/dlist"])
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSync(r)
	row := func(i int) relation.Tuple {
		return relation.NewTuple(relation.BindInt("slot", int64(i%6)), relation.BindInt("grp", dictGrps[i%len(dictGrps)]),
			relation.BindString("name", fmt.Sprintf("name-%05d", i)), relation.BindString("tag", fmt.Sprintf("tag-%d", i%7)), relation.BindInt("n", int64(i)))
	}
	const seeded, added = 200, 3000
	for i := 0; i < seeded; i++ {
		if err := s.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	want, err := snap.All()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hi := value.OfString("name-99999")
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := snap.All()
				if err != nil || !slices.EqualFunc(got, want, relation.Tuple.Equal) {
					t.Errorf("pinned snapshot moved: %d rows, %v", len(got), err)
					return
				}
				if got, err := snap.QueryRange(relation.NewTuple(), "name", nil, &hi, []string{"name", "tag"}); err != nil || len(got) != seeded {
					t.Errorf("pinned QueryRange: %d rows, %v", len(got), err)
					return
				}
				// A name the writer is interning right now is in no pinned row.
				if got, err := snap.Query(relation.NewTuple(relation.BindString("name", fmt.Sprintf("name-%05d", seeded+added-1))), []string{"n"}); err != nil || len(got) != 0 {
					t.Errorf("pinned snapshot sees a later insert: %v, %v", got, err)
					return
				}
			}
		}()
	}
	for i := seeded; i < seeded+added; i++ {
		if err := s.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
		if i == seeded+added/2 {
			// Same name, another tag: the fork interns "tag-abandoned" and
			// then fails its plan; the fork is dropped, the string stays.
			bad := row(i).Merge(relation.NewTuple(relation.BindString("tag", "tag-abandoned")))
			if err := s.Insert(bad); err == nil {
				t.Fatal("an insert contradicting a stored tuple was accepted")
			}
		}
	}
	close(stop)
	wg.Wait()
	if s.Len() != seeded+added {
		t.Fatalf("Len = %d", s.Len())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Query(relation.NewTuple(relation.BindString("tag", "tag-abandoned")), []string{"name"}); err != nil || len(got) != 0 {
		t.Fatalf("the abandoned fork's string selects %v, %v", got, err)
	}
}
