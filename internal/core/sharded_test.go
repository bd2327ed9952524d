package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/fd"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/value"
)

// mustNewSharded is core.NewSharded for fixtures known to be valid.
func mustNewSharded(spec *core.Spec, d *decomp.Decomp, opts core.ShardOptions) *core.ShardedRelation {
	sr, err := core.NewSharded(spec, d, opts)
	if err != nil {
		panic(err)
	}
	return sr
}

func newShardedSched(t *testing.T, opts core.ShardOptions) *core.ShardedRelation {
	t.Helper()
	if len(opts.ShardKey) == 0 {
		opts.ShardKey = []string{"ns", "pid"}
	}
	sr, err := core.NewSharded(schedSpec(), paperex.SchedulerDecomp(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

func TestNewShardedValidation(t *testing.T) {
	spec, d := schedSpec(), paperex.SchedulerDecomp()
	if _, err := core.NewSharded(spec, d, core.ShardOptions{}); err == nil {
		t.Error("empty shard key accepted")
	}
	if _, err := core.NewSharded(spec, d, core.ShardOptions{ShardKey: []string{"nope"}}); err == nil {
		t.Error("shard key outside the columns accepted")
	}
	// {cpu} and {state} are determined by ns, pid: two tuples that differ
	// only there would land on different shards, past each cell's FD check,
	// and an update of cpu or state would leave its tuple on a shard the new
	// value does not route to.
	for _, col := range []string{"cpu", "state"} {
		if _, err := core.NewSharded(spec, d, core.ShardOptions{ShardKey: []string{col}}); err == nil {
			t.Errorf("shard key {%s}, determined by the FD, accepted", col)
		}
	}
	// {ns} is not a key under ns, pid → state, cpu. It is accepted: a
	// tuple's shard depends only on its ns, so routing stays exact, and
	// every operation must still agree with the relational oracle.
	nonKey, err := core.NewSharded(spec, d, core.ShardOptions{ShardKey: []string{"ns"}, Shards: 4})
	if err != nil {
		t.Fatalf("non-key shard key rejected: %v", err)
	}
	oracle := relation.Empty(spec.Cols())
	for ns := int64(0); ns < 3; ns++ {
		for pid := int64(0); pid < 12; pid++ {
			tu := paperex.SchedulerTuple(ns, pid, pid%3, ns*100+pid)
			if err := nonKey.Insert(tu); err != nil {
				t.Fatal(err)
			}
			_ = oracle.Insert(tu)
		}
	}
	all := spec.Cols().Names()
	agree := func(step string) {
		t.Helper()
		for _, pat := range []relation.Tuple{
			relation.NewTuple(relation.BindInt("ns", 1)),                             // routed, many rows
			relation.NewTuple(relation.BindInt("ns", 2), relation.BindInt("pid", 5)), // routed key
			relation.NewTuple(relation.BindInt("state", 1)),                          // fan-out
			relation.NewTuple(relation.BindInt("ns", 9)),                             // routed, absent
		} {
			got, err := nonKey.Query(pat, all)
			if err != nil {
				t.Fatalf("%s: Query(%v): %v", step, pat, err)
			}
			if want := oracle.Query(pat, spec.Cols()); !tupleSlicesEqual(got, want) {
				t.Fatalf("%s: Query(%v) = %v, oracle %v", step, pat, got, want)
			}
		}
		if err := nonKey.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	agree("after inserts")
	key := relation.NewTuple(relation.BindInt("ns", 2), relation.BindInt("pid", 5))
	cpu := relation.NewTuple(relation.BindInt("cpu", 7))
	if n, err := nonKey.Update(key, cpu); err != nil || n != 1 {
		t.Fatalf("routed keyed update: n=%d err=%v", n, err)
	}
	oracle.Update(key, cpu)
	byPid := relation.NewTuple(relation.BindInt("pid", 3))
	if _, err := nonKey.Update(byPid, cpu); err == nil {
		t.Fatal("update on the non-key pattern {pid} accepted")
	}
	if _, err := nonKey.Update(relation.NewTuple(relation.BindInt("ns", 1)), cpu); err == nil {
		t.Fatal("routed update on the non-key pattern {ns} accepted")
	}
	agree("after updates")
	if n, err := nonKey.Remove(relation.NewTuple(relation.BindInt("ns", 1))); err != nil || n != 12 {
		t.Fatalf("routed remove of a namespace: n=%d err=%v", n, err)
	}
	oracle.Remove(relation.NewTuple(relation.BindInt("ns", 1)))
	agree("after remove")

	sr, err := core.NewSharded(spec, d, core.ShardOptions{ShardKey: []string{"ns", "pid"}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sr.NumShards() != 4 {
		t.Errorf("NumShards = %d, want 4", sr.NumShards())
	}
}

// twoKeySpec is a relation with two candidate keys (k1 → k2, v and k2 → k1,
// v) and a shared unit reached through both key paths.
func twoKeySpec() (*core.Spec, *decomp.Decomp) {
	spec := &core.Spec{
		Name: "twokey",
		Columns: []core.ColDef{
			{Name: "k1", Type: core.IntCol}, {Name: "k2", Type: core.IntCol}, {Name: "v", Type: core.IntCol},
		},
		FDs: fd.NewSet(
			fd.FD{From: relation.NewCols("k1"), To: relation.NewCols("k2", "v")},
			fd.FD{From: relation.NewCols("k2"), To: relation.NewCols("k1", "v")},
		),
	}
	d := decomp.MustNew([]decomp.Binding{
		decomp.Let("w", []string{"k1", "k2"}, []string{"v"}, decomp.U("v")),
		decomp.Let("y", []string{"k1"}, []string{"k2", "v"}, decomp.M(dstruct.HTableKind, "w", "k2")),
		decomp.Let("z", []string{"k2"}, []string{"k1", "v"}, decomp.M(dstruct.HTableKind, "w", "k1")),
		decomp.Let("x", nil, []string{"k1", "k2", "v"},
			decomp.J(decomp.M(dstruct.HTableKind, "y", "k1"), decomp.M(dstruct.HTableKind, "z", "k2"))),
	}, "x")
	return spec, d
}

// tup is a tuple of twoKeySpec.
func tup(k1, k2, v int64) relation.Tuple {
	return relation.NewTuple(relation.BindInt("k1", k1), relation.BindInt("k2", k2), relation.BindInt("v", v))
}

// TestShardedCrossShardFDs shards twoKeySpec on the key {k1}, which lies
// outside the left side of k2 → k1, v: tuples that FD sets in conflict hash
// to different shards, so every insert, batch, update and Upsert checks it
// against the other shards. The single-cell tier is the reference for every
// op: six inserts sharing k2 = 3, three updates (the last would store a
// second tuple with k2 = 3) and an Upsert that would too are accepted or
// rejected exactly as there, and both tiers read back the relational
// oracle. So is the batch of six tuples sharing k2 = 50, though the two
// tiers keep different prefixes of it (a sharded batch commits per shard).
func TestShardedCrossShardFDs(t *testing.T) {
	spec, d := twoKeySpec()
	byK1 := func(k1 int64) relation.Tuple { return relation.NewTuple(relation.BindInt("k1", k1)) }
	k2 := func(k2 int64) relation.Tuple { return relation.NewTuple(relation.BindInt("k2", k2)) }

	// One cell checks an update against its own other tuples: with (0, 3, 0)
	// and (11, 11, 11) stored, moving k1 = 11 to k2 = 3 would store a second
	// tuple with k2 = 3.
	probe, err := core.NewEngine(spec, d, core.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range []relation.Tuple{tup(0, 3, 0), tup(11, 11, 11)} {
		if err := probe.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := probe.Update(byK1(11), k2(3)); err == nil {
		t.Fatalf("one cell accepted an update storing a second tuple with k2 = 3 (n=%d)", n)
	}
	if err := probe.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	single, err := core.NewEngine(spec, d, core.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.NewSharded(spec, d, core.ShardOptions{ShardKey: []string{"k1"}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	oracle := relation.Empty(spec.Cols())
	same := func(op string, want, got error) bool {
		t.Helper()
		if (want == nil) != (got == nil) {
			t.Fatalf("%s: single cell says %v, sharded %v", op, want, got)
		}
		return want == nil
	}
	for k1 := int64(0); k1 < 6; k1++ {
		if same(fmt.Sprintf("insert k1=%d", k1), single.Insert(tup(k1, 3, k1)), sr.Insert(tup(k1, 3, k1))) {
			_ = oracle.Insert(tup(k1, 3, k1))
		}
	}
	for k1 := int64(10); k1 < 14; k1++ {
		if same("insert", single.Insert(tup(k1, k1, k1)), sr.Insert(tup(k1, k1, k1))) {
			_ = oracle.Insert(tup(k1, k1, k1))
		}
	}
	for _, u := range []struct {
		k1, k2 int64
		ok     bool
	}{{12, 42, true}, {13, 12, true}, {11, 3, false}} {
		_, errS := single.Update(byK1(u.k1), k2(u.k2))
		_, errR := sr.Update(byK1(u.k1), k2(u.k2))
		if same(fmt.Sprintf("update k1=%d k2:=%d", u.k1, u.k2), errS, errR) != u.ok {
			t.Fatalf("update k1=%d k2:=%d: accepted %v, want %v", u.k1, u.k2, errS == nil, u.ok)
		}
		if u.ok {
			oracle.Update(byK1(u.k1), k2(u.k2))
		}
	}
	upsert := func(relation.Tuple, bool) (relation.Tuple, error) {
		return relation.NewTuple(relation.BindInt("k2", 3), relation.BindInt("v", 7)), nil
	}
	if same("upsert k1=20", single.Insert(tup(20, 3, 7)), sr.Upsert(byK1(20), upsert)) {
		t.Fatal("an Upsert storing a second tuple with k2 = 3 was accepted")
	}
	want := oracle.All()
	for name, e := range map[string]core.Engine{"single cell": single, "sharded": sr} {
		got, err := e.All()
		if err != nil {
			t.Fatal(err)
		}
		if !tupleSlicesEqual(got, want) {
			t.Fatalf("%s reads %v, oracle %v", name, got, want)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	var batch []relation.Tuple
	for k1 := int64(30); k1 < 36; k1++ {
		batch = append(batch, tup(k1, 50, k1))
	}
	if same("batch sharing k2 = 50", single.InsertBatch(batch), sr.InsertBatch(batch)) {
		t.Fatal("a batch of six tuples sharing k2 = 50 was accepted")
	}
	for name, e := range map[string]core.Engine{"single cell": single, "sharded": sr} {
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s after the batch: %v", name, err)
		}
	}
}

// TestShardedCrossShardFDsConcurrent races eight writers on twoKeySpec
// sharded on {k1}: each inserts tuples whose k2 collide with every other
// writer's, and moves some of its tuples to a k2 of its own by update.
// Every write of such a layout holds every shard's writer mutex, so
// whatever interleaving runs, no two stored tuples share a k2 and the FDs
// hold at the end.
func TestShardedCrossShardFDsConcurrent(t *testing.T) {
	spec, d := twoKeySpec()
	sr, err := core.NewSharded(spec, d, core.ShardOptions{ShardKey: []string{"k1"}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := int64(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 40; i++ {
				_ = sr.Insert(tup(100*g+i, i%10, g))
				if i%4 == 3 {
					_, _ = sr.Update(relation.NewTuple(relation.BindInt("k1", 100*g+i-1)),
						relation.NewTuple(relation.BindInt("k2", 1000*g+i)))
				}
			}
		}()
	}
	wg.Wait()
	all, err := sr.All()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, tu := range all {
		k2 := tu.MustGet("k2").Int()
		if seen[k2] {
			t.Fatalf("two stored tuples share k2 = %d: %v", k2, all)
		}
		seen[k2] = true
	}
	if len(all) == 0 {
		t.Fatal("no insert was accepted")
	}
	if err := sr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCrossShardFDsOffTakesOneMutex shards the scheduler on {ns},
// which lies inside the left side of its one FD (ns, pid → state, cpu): no
// FD is checked across shards, so a write takes only the writer mutex of
// the shard it changes. An Upsert holds one shard's mutex while its
// callback runs an insert, a removal, an update, a batch and an Upsert on
// another shard; each must finish while the first still holds its mutex.
func TestShardedCrossShardFDsOffTakesOneMutex(t *testing.T) {
	spec := schedSpec()
	sr, err := core.NewSharded(spec, paperex.SchedulerDecomp(), core.ShardOptions{ShardKey: []string{"ns"}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	key := func(ns int64) relation.Tuple {
		return relation.NewTuple(relation.BindInt("ns", ns), relation.BindInt("pid", 1))
	}
	shardOf := func(ns int64) int {
		for i := range sr.NumShards() {
			if rows, err := sr.Shard(i).Query(key(ns), []string{"ns"}); err == nil && len(rows) == 1 {
				return i
			}
		}
		t.Fatalf("ns = %d is on no shard", ns)
		return -1
	}
	if err := sr.Insert(paperex.SchedulerTuple(0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	other := int64(1)
	for ; ; other++ {
		if err := sr.Insert(paperex.SchedulerTuple(other, 1, 0, other)); err != nil {
			t.Fatal(err)
		}
		if shardOf(other) != shardOf(0) {
			break
		}
	}
	writes := func() error {
		if _, err := sr.Remove(paperex.SchedulerTuple(other, 1, 0, other)); err != nil {
			return err
		}
		if err := sr.Insert(paperex.SchedulerTuple(other, 1, 0, other)); err != nil {
			return err
		}
		if _, err := sr.Update(key(other), relation.NewTuple(relation.BindInt("cpu", 9))); err != nil {
			return err
		}
		if err := sr.InsertBatch([]relation.Tuple{paperex.SchedulerTuple(other, 1, 0, 9)}); err != nil {
			return err
		}
		return sr.Upsert(key(other), func(relation.Tuple, bool) (relation.Tuple, error) {
			return relation.NewTuple(relation.BindInt("state", 0), relation.BindInt("cpu", 10)), nil
		})
	}
	done := make(chan error, 1)
	err = sr.Upsert(key(0), func(relation.Tuple, bool) (relation.Tuple, error) {
		go func() { done <- writes() }()
		select {
		case err := <-done:
			return relation.NewTuple(relation.BindInt("state", 0), relation.BindInt("cpu", 1)), err
		case <-time.After(10 * time.Second):
			return relation.Tuple{}, fmt.Errorf("writes to shard %d blocked while shard %d's mutex was held", shardOf(other), shardOf(0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for ns, w := range map[int64]relation.Tuple{0: paperex.SchedulerTuple(0, 1, 0, 1), other: paperex.SchedulerTuple(other, 1, 0, 10)} {
		got, err := sr.Query(key(ns), spec.Cols().Names())
		if err != nil || len(got) != 1 || !got[0].Equal(w) {
			t.Fatalf("ns = %d reads %v (%v), want %v", ns, got, err, w)
		}
	}
}

// TestShardedUpdateMayNotAssignTheShardKey shards a relation with two
// candidate keys (k1 → k2, v and k2 → k1, v) on the key {k1}. An update
// through the other key {k2} fans out and finds its tuple on the shard its
// k1 chose; assigning k1 there would strand the tuple where a routed read
// of the new k1 cannot see it, so the update is rejected. Assigning k2
// through the routed pattern {k1} is an ordinary update.
func TestShardedUpdateMayNotAssignTheShardKey(t *testing.T) {
	spec, d := twoKeySpec()
	sr, err := core.NewSharded(spec, d, core.ShardOptions{ShardKey: []string{"k1"}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	oracle := relation.Empty(spec.Cols())
	for k := int64(0); k < 8; k++ {
		if err := sr.Insert(tup(k, k+10, k)); err != nil {
			t.Fatal(err)
		}
		_ = oracle.Insert(tup(k, k+10, k))
	}
	byK2 := relation.NewTuple(relation.BindInt("k2", 13))
	if n, err := sr.Update(byK2, relation.NewTuple(relation.BindInt("k1", 99))); err == nil {
		t.Fatalf("update assigning the shard key k1 accepted (n=%d)", n)
	}
	byK1 := relation.NewTuple(relation.BindInt("k1", 3))
	k2 := relation.NewTuple(relation.BindInt("k2", 42))
	if n, err := sr.Update(byK1, k2); err != nil || n != 1 {
		t.Fatalf("routed update of k2: n=%d err=%v", n, err)
	}
	oracle.Update(byK1, k2)
	for _, pat := range []relation.Tuple{byK1, byK2, relation.NewTuple(relation.BindInt("k1", 99)), relation.NewTuple(relation.BindInt("k2", 42))} {
		got, err := sr.Query(pat, spec.Cols().Names())
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle.Query(pat, spec.Cols()); !tupleSlicesEqual(got, want) {
			t.Fatalf("Query(%v) = %v, oracle %v", pat, got, want)
		}
	}
	if err := sr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMatchesRelation drives identical operation sequences through a
// plain Relation and a ShardedRelation and requires identical observable
// behaviour, including fan-out queries and range queries.
func TestShardedMatchesRelation(t *testing.T) {
	plain := newSched(t)
	sr := newShardedSched(t, core.ShardOptions{Shards: 8})
	for ns := int64(0); ns < 4; ns++ {
		for pid := int64(0); pid < 30; pid++ {
			tu := paperex.SchedulerTuple(ns, pid, pid%3, ns*100+pid)
			if err := plain.Insert(tu); err != nil {
				t.Fatal(err)
			}
			if err := sr.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	if plain.Len() != sr.Len() {
		t.Fatalf("Len: plain %d vs sharded %d", plain.Len(), sr.Len())
	}

	key := relation.NewTuple(relation.BindInt("ns", 2), relation.BindInt("pid", 7))
	for _, q := range []struct {
		name string
		pat  relation.Tuple
		out  []string
	}{
		{"point", key, []string{"state", "cpu"}},
		{"point-all-cols", key, []string{"ns", "pid", "state", "cpu"}},
		{"fanout-by-state", relation.NewTuple(relation.BindInt("state", 1)), []string{"ns", "pid"}},
		{"fanout-all", relation.NewTuple(), []string{"ns", "pid", "state", "cpu"}},
		{"fanout-dedup", relation.NewTuple(), []string{"state"}},
	} {
		want, err := plain.Query(q.pat, q.out)
		if err != nil {
			t.Fatalf("%s: plain: %v", q.name, err)
		}
		got, err := sr.Query(q.pat, q.out)
		if err != nil {
			t.Fatalf("%s: sharded: %v", q.name, err)
		}
		if !tupleSlicesEqual(want, got) {
			t.Errorf("%s: plain %v vs sharded %v", q.name, want, got)
		}
	}

	lo, hi := value.OfInt(5), value.OfInt(15)
	pat := relation.NewTuple(relation.BindInt("ns", 1))
	want, err := plain.QueryRange(pat, "pid", &lo, &hi, []string{"pid", "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sr.QueryRange(pat, "pid", &lo, &hi, []string{"pid", "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if !tupleSlicesEqual(want, got) {
		t.Errorf("range: plain %v vs sharded %v", want, got)
	}

	// Streaming parity: fan-out QueryFunc visits every match exactly as
	// often as the per-shard engines would, and early stop works.
	n := 0
	if err := sr.QueryFunc(relation.NewTuple(relation.BindInt("state", 0)), []string{"pid"}, func(relation.Tuple) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("QueryFunc early stop visited %d", n)
	}

	// Update and Remove parity, routed and broadcast.
	for _, eng := range []interface {
		Update(s, u relation.Tuple) (int, error)
		Remove(pat relation.Tuple) (int, error)
	}{plain, sr} {
		if n, err := eng.Update(key, relation.NewTuple(relation.BindInt("cpu", 999))); err != nil || n != 1 {
			t.Fatalf("update: n=%d err=%v", n, err)
		}
		if n, err := eng.Remove(relation.NewTuple(relation.BindInt("ns", 3))); err != nil || n != 30 {
			t.Fatalf("broadcast remove: n=%d err=%v", n, err)
		}
	}
	wantAll, err := plain.All()
	if err != nil {
		t.Fatal(err)
	}
	gotAll, err := sr.All()
	if err != nil {
		t.Fatal(err)
	}
	if !tupleSlicesEqual(wantAll, gotAll) {
		t.Error("final states diverged after update/remove")
	}
	if err := sr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestShardedBatches(t *testing.T) {
	sr := newShardedSched(t, core.ShardOptions{Shards: 8, Workers: 4})
	var batch []relation.Tuple
	for pid := int64(0); pid < 200; pid++ {
		batch = append(batch, paperex.SchedulerTuple(pid%5, pid, pid%2, pid))
	}
	if err := sr.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if sr.Len() != 200 {
		t.Fatalf("Len = %d after batch insert", sr.Len())
	}
	// Remove half by key, and one whole namespace by broadcast pattern.
	var pats []relation.Tuple
	for pid := int64(0); pid < 100; pid++ {
		pats = append(pats, relation.NewTuple(relation.BindInt("ns", pid%5), relation.BindInt("pid", pid)))
	}
	pats = append(pats, relation.NewTuple(relation.BindInt("ns", 4)))
	n := 0
	for _, pat := range pats {
		k, err := sr.Remove(pat)
		if err != nil {
			t.Fatal(err)
		}
		n += k
	}
	// pids 0..99 leave 100 tuples; ns=4 then holds pids 104,109,...,199.
	if want := 100 + 20; n != want {
		t.Errorf("removed %d, want %d", n, want)
	}
	if err := sr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedExclusiveUpsert runs a counter upsert from eight writers on
// one key: each read-modify-write excludes the shard's other writers, so
// no increment is lost.
func TestShardedExclusiveUpsert(t *testing.T) {
	sr := newShardedSched(t, core.ShardOptions{Shards: 4})
	key := relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 1))
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := sr.Upsert(key, func(cur relation.Tuple, found bool) (relation.Tuple, error) {
					if !found {
						return relation.NewTuple(relation.BindInt("state", 0), relation.BindInt("cpu", 1)), nil
					}
					return relation.NewTuple(relation.BindInt("cpu", cur.MustGet("cpu").Int()+1)), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := sr.Query(key, []string{"cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].MustGet("cpu").Int() != workers*perWorker {
		t.Fatalf("counter = %v, want %d", got, workers*perWorker)
	}
}

// TestShardedUpsertRowIsTheCallersToKeep: on a shard key that is not a
// key, Upsert finds the current tuple with a stream, whose rows are views;
// the tuple handed to f is a copy, so a read of the same shape inside f
// (reusing the stream's pooled state) does not change it.
func TestShardedUpsertRowIsTheCallersToKeep(t *testing.T) {
	sr := newShardedSched(t, core.ShardOptions{ShardKey: []string{"ns"}, Shards: 2})
	for _, tu := range []relation.Tuple{
		paperex.SchedulerTuple(1, 1, paperex.StateS, 7),
		paperex.SchedulerTuple(1, 2, paperex.StateR, 4),
	} {
		if err := sr.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	key := relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 1))
	other := relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 2))
	all := schedSpec().Cols().Names()
	err := sr.Upsert(key, func(cur relation.Tuple, found bool) (relation.Tuple, error) {
		if err := sr.QueryFunc(other, all, func(relation.Tuple) bool { return true }); err != nil {
			return relation.Tuple{}, err
		}
		if want := paperex.SchedulerTuple(1, 1, paperex.StateS, 7); !found || !cur.Equal(want) {
			t.Errorf("Upsert handed f %v (found %v) after a read, want %v", cur, found, want)
		}
		return relation.NewTuple(relation.BindInt("cpu", 8)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// stressOp is one entry of the recorded operation log.
type stressOp struct {
	kind byte // 'i', 'r', 'u'
	t, u relation.Tuple
}

// TestShardedConcurrentStress runs a seeded-random mixed workload from 8
// goroutines — each owning a disjoint slice of the key space, so the final
// state is interleaving-independent — and then checks that the sharded
// engine's abstraction equals the reference oracle (internal/relation)
// applied to the same operation log. Run with -race to also verify the
// locking discipline.
func TestShardedConcurrentStress(t *testing.T) {
	const (
		workers   = 8
		perWorker = 1600 // 12800 mutating/querying ops total, ≥ 10k
		pids      = 40
	)
	sr := newShardedSched(t, core.ShardOptions{Shards: 16, Workers: 4})
	logs := make([][]stressOp, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			ns := int64(w)
			live := map[int64]int64{} // pid → cpu, this worker's own model
			keyOf := func(pid int64) relation.Tuple {
				return relation.NewTuple(relation.BindInt("ns", ns), relation.BindInt("pid", pid))
			}
			for i := 0; i < perWorker; i++ {
				pid := int64(rng.Intn(pids))
				switch r := rng.Float64(); {
				case r < 0.30: // insert (only keys this worker knows are absent)
					if _, ok := live[pid]; ok {
						pid = int64(rng.Intn(pids) + pids) // second band: mostly absent
						if _, ok := live[pid]; ok {
							continue
						}
					}
					tu := paperex.SchedulerTuple(ns, pid, pid%2, int64(i))
					if err := sr.Insert(tu); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
					live[pid] = int64(i)
					logs[w] = append(logs[w], stressOp{kind: 'i', t: tu})
				case r < 0.42: // batched insert of a fresh band of keys
					var batch []relation.Tuple
					for j := int64(0); j < 4; j++ {
						p := int64(2*pids) + int64(rng.Intn(pids))
						if _, ok := live[p]; ok {
							continue
						}
						tu := paperex.SchedulerTuple(ns, p, p%2, int64(i))
						batch = append(batch, tu)
						live[p] = int64(i)
						logs[w] = append(logs[w], stressOp{kind: 'i', t: tu})
					}
					if err := sr.InsertBatch(batch); err != nil {
						t.Errorf("insert batch: %v", err)
						return
					}
				case r < 0.57: // keyed remove
					if _, err := sr.Remove(keyOf(pid)); err != nil {
						t.Errorf("remove: %v", err)
						return
					}
					delete(live, pid)
					logs[w] = append(logs[w], stressOp{kind: 'r', t: keyOf(pid)})
				case r < 0.72: // keyed update
					u := relation.NewTuple(relation.BindInt("cpu", int64(i)))
					if _, err := sr.Update(keyOf(pid), u); err != nil {
						t.Errorf("update: %v", err)
						return
					}
					if _, ok := live[pid]; ok {
						live[pid] = int64(i)
					}
					logs[w] = append(logs[w], stressOp{kind: 'u', t: keyOf(pid), u: u})
				case r < 0.92: // routed point query, checked against own model
					got, err := sr.Query(keyOf(pid), []string{"cpu"})
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					if cpu, ok := live[pid]; ok {
						if len(got) != 1 || got[0].MustGet("cpu").Int() != cpu {
							t.Errorf("worker %d pid %d: query %v, model cpu %d", w, pid, got, cpu)
							return
						}
					} else if len(got) != 0 {
						t.Errorf("worker %d pid %d: query %v for removed key", w, pid, got)
						return
					}
				default: // fan-out query across all shards (result unchecked: other workers mutate concurrently)
					if _, err := sr.Query(relation.NewTuple(relation.BindInt("state", pid%2)), []string{"ns", "pid"}); err != nil {
						t.Errorf("fan-out query: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Replay the logs into the oracle. Workers own disjoint namespaces, so
	// replaying worker-by-worker is equivalent to any real interleaving.
	oracle := relation.Empty(schedSpec().Cols())
	ops := 0
	for _, log := range logs {
		ops += len(log)
		for _, op := range log {
			switch op.kind {
			case 'i':
				if err := oracle.Insert(op.t); err != nil {
					t.Fatal(err)
				}
			case 'r':
				oracle.Remove(op.t)
			case 'u':
				oracle.Update(op.t, op.u)
			}
		}
	}
	t.Logf("replayed %d mutating ops", ops)

	got, err := sr.All()
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.All()
	if !tupleSlicesEqual(want, got) {
		t.Fatalf("abstraction diverged from oracle: %d vs %d tuples", len(got), len(want))
	}
	if sr.Len() != oracle.Len() {
		t.Fatalf("Len %d vs oracle %d", sr.Len(), oracle.Len())
	}
	if err := sr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func tupleSlicesEqual(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

var _ = fmt.Sprintf // keep fmt for debugging edits
