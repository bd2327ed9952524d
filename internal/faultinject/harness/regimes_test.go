package harness

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/paperex"
	"repro/internal/relation"
)

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
					return subject{s, pre, pre.Version(), pre.Instance().Relation()}
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
					if got := s.Snapshot().Version(); got != sub.preVer {
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
