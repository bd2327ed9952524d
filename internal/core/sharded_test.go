package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
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
	// {ns} is not a key under ns, pid → state, cpu.
	if _, err := core.NewSharded(spec, d, core.ShardOptions{ShardKey: []string{"ns"}}); err == nil {
		t.Error("non-key shard key accepted without AllowNonKey")
	}
	if _, err := core.NewSharded(spec, d, core.ShardOptions{ShardKey: []string{"ns"}, AllowNonKey: true}); err != nil {
		t.Errorf("AllowNonKey rejected a non-key shard key: %v", err)
	}
	sr, err := core.NewSharded(spec, d, core.ShardOptions{ShardKey: []string{"ns", "pid"}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sr.NumShards() != 4 {
		t.Errorf("NumShards = %d, want 4", sr.NumShards())
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
	sr := newShardedSched(t, core.ShardOptions{ShardKey: []string{"ns"}, AllowNonKey: true, Shards: 2})
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
