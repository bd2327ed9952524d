// Package harness drives the fault-injection plane through the public
// engine and asserts the atomicity contract of every mutation: a mutation
// that fails — because a data structure returned an injected error or
// panicked outright — leaves the relation exactly as it was, well-formed
// (CheckWF), and representing the same abstract relation α as before the
// mutation. Over a corpus of paper decompositions it runs
//
//   - the exhaustive regimes: a fault at every reachable step of every
//     mutation, in both error and panic mode. Each Exhaust* function is a
//     faultinject.Regime — fresh subject, action, armed sites, contract —
//     handed to the one sweep driver, faultinject.Sweep: Exhaust (bare
//     relation), ExhaustCOW (MVCC tier), ExhaustWAL, ExhaustWALCheckpoint
//     and ExhaustWALRecovery (durable tier, wal.go), ExhaustRepl,
//     ExhaustReplResubscribe and ExhaustReplCatchUp (replication, repl.go);
//   - randomized: seed-driven op/fault schedules against a mirror oracle;
//   - concurrent: a sharded engine hammered from several goroutines while
//     faults are armed, for the race detector.
package harness

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/faultinject"
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

// longListCase is the scheduler decomposition again with sixty-six sleeping
// processes, so that their run-queue dlist spans three of dstruct's
// 32-entry chunks (32, 32, 2) and a commit's kill-points fall around the
// list's own copy-on-write steps: a directory copy and a chunk copy (insert,
// remove-point, update-replace), two chunks merging (remove-merge thins the
// second chunk until it fits in half a chunk with the third) and a chunk
// dropped from the directory (remove-drop empties the third).
func longListCase() Case {
	c := schedulerCase()
	c.Name = "scheduler-long"
	c.Seed = []relation.Tuple{paperex.SchedulerTuple(1, 100, paperex.StateR, 1)}
	for pid := int64(1); pid <= 66; pid++ {
		ns := int64(1)
		switch {
		case pid > 64:
			ns = 3
		case pid > 40 && pid <= 60:
			ns = 2
		}
		c.Seed = append(c.Seed, paperex.SchedulerTuple(ns, pid, paperex.StateS, pid))
	}
	c.Batch = []relation.Tuple{
		paperex.SchedulerTuple(5, 1, paperex.StateR, 2),
		paperex.SchedulerTuple(5, 2, paperex.StateS, 3),
		paperex.SchedulerTuple(6, 1, paperex.StateR, 1),
	}
	c.Muts = []Mutation{
		insertMut(paperex.SchedulerTuple(4, 1, paperex.StateS, 2)),
		removeMut("remove-point", paperex.SchedulerTuple(1, 36, paperex.StateS, 36)),
		removeMut("remove-merge", relation.NewTuple(bi("ns", 2))),
		removeMut("remove-drop", relation.NewTuple(bi("ns", 3))),
		updateMut("update-replace", relation.NewTuple(bi("ns", 1), bi("pid", 5)), relation.NewTuple(bi("state", paperex.StateR))),
	}
	c.Gen = func(rnd *rand.Rand) relation.Tuple {
		return paperex.SchedulerTuple(1+rnd.Int63n(3), 1+rnd.Int63n(70), rnd.Int63n(2), rnd.Int63n(4))
	}
	return c
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

// InMemoryCases is Cases plus the long-list case, for the regimes whose
// armed attempt costs a rebuild in memory (Exhaust, ExhaustCOW, Randomized).
// Its sweeps are thousands of attempts long, and the regimes that pay a
// directory or a socket per attempt commit through the same fork the COW
// regime already kills at every step.
func InMemoryCases() []Case { return append(Cases(), longListCase()) }

// engineMuts is the corpus of the regimes whose subject is a core.Engine
// (COW, WAL, replication): the case's mutations plus two that move several
// tuples in one fork and one log record, so that faults land between tuple
// i and i+1 of a single commit. The single-cell engines have no RemoveBatch
// (it is the sharded tier's); their one-record multi-tuple remove is a
// pattern remove, here the empty pattern taking every seeded tuple. On the
// sharded WAL tier both rows fan out, which ExhaustWAL observes and skips.
func (c Case) engineMuts() []Mutation {
	return append(slices.Clip(c.Muts),
		Mutation{"insert-batch", func(r Mutator) error { return r.(core.Engine).InsertBatch(c.Batch) }},
		removeMut("remove-batch", relation.NewTuple()))
}

// build constructs and seeds the case's relation. The fault plane must
// already be installed (and disarmed) so the instance's data structures
// carry live injection points.
func (c Case) build(t *testing.T) *core.Relation {
	t.Helper()
	r, err := core.New(c.Spec(), c.Decomp())
	if err != nil {
		t.Fatalf("%s: build: %v", c.Name, err)
	}
	// The harness feeds arbitrary generated tuples; dynamic FD validation
	// keeps Lemma 4's precondition (the engine's default trusts the client).
	r.CheckFDs = true
	for _, tup := range c.Seed {
		if err := r.Insert(tup); err != nil {
			t.Fatalf("%s: seed %v: %v", c.Name, tup, err)
		}
	}
	return r
}

// Exhaust injects a fault at every reachable step of every mutation of the
// case, in both modes, and asserts atomicity: the failed mutation surfaced
// an error, the instance stayed well-formed (CheckWF), α equals the
// pre-mutation oracle, the relation is not poisoned, and the mutation
// succeeds when retried.
func Exhaust(t *testing.T, p *faultinject.Plane, c Case) {
	type subject struct {
		r      *core.Relation
		oracle *relation.Relation
	}
	for _, mu := range c.Muts {
		t.Run(mu.Name, func(t *testing.T) {
			faultinject.Sweep(t, p, faultinject.Regime[subject]{
				Fresh: func() subject {
					r := c.build(t)
					return subject{r, r.Instance().Relation()}
				},
				Action: func(s subject) error { return mu.Run(s.r) },
				Contract: func(s subject, a faultinject.Attempt) {
					r, step, mode := s.r, a.Step, a.Mode
					a.RequireContained(t)
					if r.Poisoned() {
						t.Fatalf("step %d/%v: single fault poisoned the relation", step, mode)
					}
					if werr := r.Instance().CheckWF(); werr != nil {
						t.Fatalf("step %d/%v: not well-formed after rollback: %v", step, mode, werr)
					}
					if !r.Instance().Relation().Equal(s.oracle) {
						t.Fatalf("step %d/%v: α changed across failed %s", step, mode, mu.Name)
					}
					if rerr := mu.Run(r); rerr != nil {
						t.Fatalf("step %d/%v: retry: %v", step, mode, rerr)
					}
					if werr := r.Instance().CheckWF(); werr != nil {
						t.Fatalf("step %d/%v: retry left instance ill-formed: %v", step, mode, werr)
					}
				},
			})
		})
	}
}

// ExhaustCOW runs the exhaustive regime against the MVCC tier: the case's
// relation wrapped in core.NewSync, so every mutation builds a copy-on-write
// fork and publishes it atomically. The atomicity contract sharpens to
// pointer identity: after a failed mutation the published snapshot must be
// EXACTLY the pre-mutation *core.Relation — always either the old version or
// the (never-published) new one, never a torn hybrid — with the version
// counter unchanged and the published instance still well-formed with α
// equal to the pre-mutation oracle. The clone and link steps of the COW
// spine walk are themselves injection points (instance.cow.clone,
// instance.cow.link), so faults land inside fork construction as well as
// inside the underlying data structures.
func ExhaustCOW(t *testing.T, p *faultinject.Plane, c Case) {
	type subject struct {
		s      *core.SyncRelation
		pre    *core.Relation
		preVer uint64
		oracle *relation.Relation
	}
	for _, mu := range c.engineMuts() {
		t.Run(mu.Name, func(t *testing.T) {
			faultinject.Sweep(t, p, faultinject.Regime[subject]{
				Fresh: func() subject {
					s := core.NewSync(c.build(t))
					pre := s.Snapshot()
					return subject{s, pre, s.Version(), pre.Instance().Relation()}
				},
				Action:  func(sub subject) error { return mu.Run(sub.s) },
				Require: []string{"instance.cow."},
				Contract: func(sub subject, a faultinject.Attempt) {
					s, pre, step, mode := sub.s, sub.pre, a.Step, a.Mode
					a.RequireContained(t)
					// The torn-hybrid check: failure drops the fork before
					// publication, so the handle must be the same instance,
					// pointer-identical, at the same version.
					if got := s.Snapshot(); got != pre {
						t.Fatalf("step %d/%v: failed %s published a new version", step, mode, mu.Name)
					}
					if got := s.Version(); got != sub.preVer {
						t.Fatalf("step %d/%v: version advanced %d -> %d across failed %s", step, mode, sub.preVer, got, mu.Name)
					}
					if s.Snapshot().Poisoned() {
						t.Fatalf("step %d/%v: fault poisoned the MVCC tier (the dropped fork should absorb it)", step, mode)
					}
					if werr := pre.Instance().CheckWF(); werr != nil {
						t.Fatalf("step %d/%v: published instance ill-formed after drop: %v", step, mode, werr)
					}
					if !pre.Instance().Relation().Equal(sub.oracle) {
						t.Fatalf("step %d/%v: α of the published snapshot changed across failed %s", step, mode, mu.Name)
					}
					if rerr := mu.Run(s); rerr != nil {
						t.Fatalf("step %d/%v: retry: %v", step, mode, rerr)
					}
					post := s.Snapshot()
					if post == pre {
						t.Fatalf("step %d/%v: successful retry published no new version", step, mode)
					}
					if werr := post.Instance().CheckWF(); werr != nil {
						t.Fatalf("step %d/%v: retry left published instance ill-formed: %v", step, mode, werr)
					}
				},
			})
		})
	}
}

// Randomized runs a seed-driven schedule of random operations with faults
// armed at random steps, against a mirror relation as oracle: an operation
// that returns an error must leave α unchanged; one that succeeds must
// agree with the mirror's own semantics.
func Randomized(t *testing.T, p *faultinject.Plane, c Case, seed int64, ops int) {
	rnd := rand.New(rand.NewSource(seed))
	r := c.build(t)
	oracle := relation.Empty(c.Spec().Cols())
	for _, tup := range c.Seed {
		_ = oracle.Insert(tup)
	}
	keyCols := relation.NewCols(c.Key...)
	for i := 0; i < ops; i++ {
		armed := rnd.Intn(2) == 0
		if armed {
			mode := faultinject.Error
			if rnd.Intn(2) == 0 {
				mode = faultinject.Panic
			}
			p.Reset()
			p.Arm(int64(1+rnd.Intn(60)), mode)
		}
		var err error
		tup := c.Gen(rnd)
		switch rnd.Intn(3) {
		case 0:
			err = r.Insert(tup)
			if err == nil {
				_ = oracle.Insert(tup)
			}
		case 1:
			if _, err = r.Remove(tup); err == nil {
				oracle.Remove(tup)
			}
		case 2:
			s := tup.Project(keyCols)
			u := relation.NewTuple()
			for _, b := range tup.Bindings() {
				if _, bound := s.Get(b.Col); !bound {
					u = relation.NewTuple(b)
					break
				}
			}
			var n int
			n, err = r.Update(s, u)
			if err == nil && n > 0 {
				oracle.Update(s, u)
			}
		}
		p.Disarm()
		if err != nil {
			if r.Poisoned() {
				t.Fatalf("%s seed %d op %d: poisoned by a single fault", c.Name, seed, i)
			}
			if werr := r.Instance().CheckWF(); werr != nil {
				t.Fatalf("%s seed %d op %d: ill-formed after error %v: %v", c.Name, seed, i, err, werr)
			}
		}
		if !r.Instance().Relation().Equal(oracle) {
			t.Fatalf("%s seed %d op %d: α diverged from oracle after %v (err=%v)", c.Name, seed, i, tup, err)
		}
	}
	if werr := r.Instance().CheckWF(); werr != nil {
		t.Fatalf("%s seed %d: final instance ill-formed: %v", c.Name, seed, werr)
	}
}

// Concurrent hammers a sharded scheduler engine from several goroutines
// while a background loop keeps arming faults at near-future steps. Each
// worker owns one ns value and mirrors its own slice of the relation; when
// the dust settles the engine must agree with every mirror — unless a
// double fault poisoned a shard, in which case the engine must have refused
// every subsequent mutation on it. Run under -race this exercises the
// containment paths (fan-out recover, lock release on panic) for data
// races.
func Concurrent(t *testing.T, p *faultinject.Plane, workers, ops int) {
	spec := &core.Spec{Name: "processes", Columns: intCols("ns", "pid", "state", "cpu"), FDs: paperex.SchedulerFDs()}
	sr, err := core.NewSharded(spec, paperex.SchedulerDecomp(),
		core.ShardOptions{ShardKey: []string{"ns", "pid"}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sr.NumShards(); i++ {
		sr.Shard(i).CheckFDs = true
	}
	stop := make(chan struct{})
	var armWG sync.WaitGroup
	armWG.Add(1)
	go func() {
		defer armWG.Done()
		rnd := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			mode := faultinject.Error
			if rnd.Intn(2) == 0 {
				mode = faultinject.Panic
			}
			p.Arm(p.Steps()+int64(1+rnd.Intn(40)), mode)
			time.Sleep(20 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	mirrors := make([]map[string]relation.Tuple, workers)
	for g := 0; g < workers; g++ {
		mirrors[g] = make(map[string]relation.Tuple)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(100 + g)))
			mine := mirrors[g]
			for i := 0; i < ops; i++ {
				pid := rnd.Int63n(8)
				key := relation.NewTuple(relation.BindInt("ns", int64(g)), relation.BindInt("pid", pid))
				switch rnd.Intn(3) {
				case 0:
					tup := paperex.SchedulerTuple(int64(g), pid, rnd.Int63n(2), rnd.Int63n(4))
					if err := sr.Insert(tup); err == nil {
						mine[key.Key()] = tup
					}
				case 1:
					if n, err := sr.Remove(key); err == nil && n > 0 {
						delete(mine, key.Key())
					}
				case 2:
					u := relation.NewTuple(relation.BindInt("cpu", rnd.Int63n(4)))
					if n, err := sr.Update(key, u); err == nil && n > 0 {
						if cur, ok := mine[key.Key()]; ok {
							mine[key.Key()] = cur.Merge(u)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	armWG.Wait()
	p.Disarm()
	for i := 0; i < sr.NumShards(); i++ {
		if sr.Shard(i).Poisoned() {
			t.Fatalf("shard %d poisoned: the dropped fork should absorb every fault", i)
		}
	}
	if err := sr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after concurrent schedule: %v", err)
	}
	for g := 0; g < workers; g++ {
		got, err := sr.Query(relation.NewTuple(relation.BindInt("ns", int64(g))), []string{"ns", "pid", "state", "cpu"})
		if err != nil {
			t.Fatalf("final query ns=%d: %v", g, err)
		}
		if len(got) != len(mirrors[g]) {
			t.Fatalf("ns=%d: engine has %d tuples, mirror %d", g, len(got), len(mirrors[g]))
		}
		for _, tup := range got {
			key := tup.Project(relation.NewCols("ns", "pid")).Key()
			want, ok := mirrors[g][key]
			if !ok || !tup.Equal(want.Project(tup.Dom())) {
				t.Fatalf("ns=%d: engine tuple %v disagrees with mirror %v", g, tup, want)
			}
		}
	}
}
