package core_test

// Failure-semantics tests of the engine boundary: panics become errors, a
// failed compound mutation compensates back to the pre-mutation relation,
// and only a failed rollback poisons a relation into read-only mode.

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/paperex"
	"repro/internal/relation"
)

var schedSeed = []relation.Tuple{
	paperex.SchedulerTuple(1, 1, paperex.StateS, 7),
	paperex.SchedulerTuple(1, 2, paperex.StateR, 4),
	paperex.SchedulerTuple(2, 1, paperex.StateS, 5),
}

func planeForTest(t *testing.T) *faultinject.Plane {
	t.Helper()
	p := faultinject.NewPlane()
	faultinject.Install(p)
	t.Cleanup(faultinject.Uninstall)
	return p
}

// seededSched builds a scheduler relation holding schedSeed; with a plane
// installed its instance maps carry live injection points.
func seededSched(t *testing.T) *core.Relation {
	t.Helper()
	r := newSched(t)
	for _, tup := range schedSeed {
		if err := r.Insert(tup); err != nil {
			t.Fatalf("seed insert %v: %v", tup, err)
		}
	}
	return r
}

func allTuples(t *testing.T, r *core.Relation) []relation.Tuple {
	t.Helper()
	res, err := r.All()
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	return res
}

func sameTuples(a, b []relation.Tuple) bool {
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

func TestPanicContainedAsError(t *testing.T) {
	p := planeForTest(t)
	r := seededSched(t)
	p.Reset()
	p.Arm(1, faultinject.Panic)
	err := r.Insert(paperex.SchedulerTuple(3, 1, paperex.StateR, 2))
	p.Disarm()
	if err == nil {
		t.Fatal("injected panic surfaced as success")
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *core.PanicError", err, err)
	}
	var inj *faultinject.Injected
	if !errors.As(err, &inj) {
		t.Fatalf("PanicError does not unwrap to the injected fault: %v", err)
	}
	if r.Poisoned() {
		t.Fatal("a contained panic poisoned the relation")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("invariants after contained panic: %v", err)
	}
	if err := r.Insert(paperex.SchedulerTuple(3, 1, paperex.StateR, 2)); err != nil {
		t.Fatalf("retry after contained panic: %v", err)
	}
}

// exhaustMutation injects a fault at every step of mut — errors at the
// error-capable sites, panics everywhere — and asserts the failed mutation
// left the relation exactly as seeded, well-formed, and not poisoned.
func exhaustMutation(t *testing.T, p *faultinject.Plane, mut func(r *core.Relation) error) {
	t.Helper()
	type subject struct {
		r      *core.Relation
		before []relation.Tuple
	}
	faultinject.Sweep(t, p, faultinject.Regime[subject]{
		Fresh: func() subject {
			r := seededSched(t)
			return subject{r, allTuples(t, r)}
		},
		Action: func(s subject) error { return mut(s.r) },
		Contract: func(s subject, a faultinject.Attempt) {
			r, step, mode := s.r, a.Step, a.Mode
			a.RequireContained(t)
			if r.Poisoned() {
				t.Fatalf("step %d/%v: single fault poisoned the relation", step, mode)
			}
			if ierr := r.CheckInvariants(); ierr != nil {
				t.Fatalf("step %d/%v: invariants violated: %v", step, mode, ierr)
			}
			if got := allTuples(t, r); !sameTuples(got, s.before) {
				t.Fatalf("step %d/%v: relation changed across failed mutation:\n got %v\nwant %v", step, mode, got, s.before)
			}
			if merr := mut(r); merr != nil {
				t.Fatalf("step %d/%v: retry failed: %v", step, mode, merr)
			}
		},
	})
}

// TestUpdateReplaceRestoresOnFailure is the public-API torn-update
// regression: updating the state column forces the remove+reinsert
// fallback, and a fault anywhere inside it — during the remove, during the
// reinsert, or during compensation's window — must restore the stored
// tuple rather than losing it.
func TestUpdateReplaceRestoresOnFailure(t *testing.T) {
	p := planeForTest(t)
	exhaustMutation(t, p, func(r *core.Relation) error {
		n, err := r.Update(
			relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 1)),
			relation.NewTuple(relation.BindInt("state", paperex.StateR)))
		if err == nil && n != 1 {
			t.Fatalf("update matched %d tuples, want 1", n)
		}
		return err
	})
}

// TestRemovePatternCompensation removes two tuples with one pattern; a
// fault while removing the second must re-insert the first.
func TestRemovePatternCompensation(t *testing.T) {
	p := planeForTest(t)
	exhaustMutation(t, p, func(r *core.Relation) error {
		n, err := r.Remove(relation.NewTuple(relation.BindInt("ns", 1)))
		if err == nil && n != 2 {
			t.Fatalf("removed %d tuples, want 2", n)
		}
		return err
	})
}

// secondLinkStep traces a clean insert of tup into a seeded scheduler
// relation and returns the step of its second link write: a persistent
// panic armed from there (ArmFrom) fires once during apply, with a
// non-empty undo log, and again during the undo replay — the one way to
// make a rollback itself fail.
func secondLinkStep(t *testing.T, p *faultinject.Plane, tup relation.Tuple) int {
	t.Helper()
	r := seededSched(t)
	p.Reset()
	p.Trace(true)
	if err := r.Insert(tup); err != nil {
		t.Fatalf("trace insert: %v", err)
	}
	pts := p.Points()
	p.Trace(false)
	p.Reset()
	links := 0
	for i, pi := range pts {
		if pi.Site == "instance.insert.link" {
			if links++; links == 2 {
				return i + 1
			}
		}
	}
	t.Fatalf("insert has %d link writes, need 2 (points: %v)", links, pts)
	return 0
}

// TestPoisonedDegradesToReadOnly drives the one unmaskable failure — a
// panic during apply whose rollback panics again — and checks the contract:
// the relation flips to poisoned, rejects further mutations with
// ErrPoisoned, and still answers queries.
func TestPoisonedDegradesToReadOnly(t *testing.T) {
	p := planeForTest(t)
	tup := paperex.SchedulerTuple(3, 1, paperex.StateR, 2)
	step := secondLinkStep(t, p, tup)

	r := seededSched(t)
	p.Reset()
	p.ArmFrom(int64(step), faultinject.Panic)
	err := r.Insert(tup)
	p.Disarm()
	if err == nil {
		t.Fatal("double fault surfaced as success")
	}
	if !r.Poisoned() {
		t.Fatal("failed rollback did not poison the relation")
	}
	if err := r.Insert(paperex.SchedulerTuple(4, 1, paperex.StateS, 1)); !errors.Is(err, core.ErrPoisoned) {
		t.Fatalf("mutation on poisoned relation: %v, want ErrPoisoned", err)
	}
	if _, err := r.Update(
		relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 1)),
		relation.NewTuple(relation.BindInt("cpu", 9))); !errors.Is(err, core.ErrPoisoned) {
		t.Fatalf("update on poisoned relation: %v, want ErrPoisoned", err)
	}
	// Queries still run: poisoning degrades to read-only, not to bricked.
	if _, err := r.Query(relation.NewTuple(relation.BindInt("ns", 2)), []string{"pid"}); err != nil {
		t.Fatalf("query on poisoned relation: %v", err)
	}
}

func TestSyncRelationSurvivesContainedPanic(t *testing.T) {
	p := planeForTest(t)
	s := core.NewSync(seededSched(t))
	p.Reset()
	p.Arm(1, faultinject.Panic)
	err := s.Insert(paperex.SchedulerTuple(3, 1, paperex.StateR, 2))
	p.Disarm()
	if err == nil {
		t.Fatal("injected panic surfaced as success")
	}
	if s.Snapshot().Poisoned() {
		t.Fatal("contained panic poisoned the wrapped relation")
	}
	// The write lock was released on the error path: further operations
	// proceed instead of deadlocking.
	if err := s.Insert(paperex.SchedulerTuple(3, 1, paperex.StateR, 2)); err != nil {
		t.Fatalf("insert after contained panic: %v", err)
	}
	if n := s.Len(); n != len(schedSeed)+1 {
		t.Fatalf("Len = %d, want %d", n, len(schedSeed)+1)
	}
}

// TestShardedBatchPerShardUndo checks InsertBatch's failure unit: the shard
// whose group hits the fault rolls its whole group back, every other shard
// commits its group, and the engine stays consistent and unpoisoned.
func TestShardedBatchPerShardUndo(t *testing.T) {
	p := planeForTest(t)
	shardKey := []string{"ns", "pid"}
	newEngine := func() *core.ShardedRelation {
		sr, err := core.NewSharded(schedSpec(), paperex.SchedulerDecomp(),
			core.ShardOptions{ShardKey: shardKey, Shards: 4, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	batch := []relation.Tuple{
		paperex.SchedulerTuple(1, 1, paperex.StateS, 7),
		paperex.SchedulerTuple(1, 2, paperex.StateR, 4),
		paperex.SchedulerTuple(2, 1, paperex.StateS, 5),
		paperex.SchedulerTuple(2, 2, paperex.StateR, 3),
		paperex.SchedulerTuple(3, 1, paperex.StateS, 6),
		paperex.SchedulerTuple(3, 2, paperex.StateR, 8),
	}
	shardOf := func(tup relation.Tuple) int {
		h, ok := tup.HashShard(relation.NewCols(shardKey...))
		if !ok {
			t.Fatalf("tuple %v does not bind the shard key", tup)
		}
		return int(h % 4)
	}

	faultinject.Sweep(t, p, faultinject.Regime[*core.ShardedRelation]{
		Fresh:  newEngine,
		Action: func(sr *core.ShardedRelation) error { return sr.InsertBatch(batch) },
		Contract: func(sr *core.ShardedRelation, a faultinject.Attempt) {
			step, mode := a.Step, a.Mode
			a.RequireContained(t)
			for i := 0; i < sr.NumShards(); i++ {
				if sr.Shard(i).Poisoned() {
					t.Fatalf("step %d/%v: single fault poisoned shard %d", step, mode, i)
				}
			}
			if ierr := sr.CheckInvariants(); ierr != nil {
				t.Fatalf("step %d/%v: invariants violated: %v", step, mode, ierr)
			}
			// Per-shard atomicity: a shard holds either its entire group
			// or none of it.
			present := make(map[int]int)
			groupSize := make(map[int]int)
			for _, tup := range batch {
				sh := shardOf(tup)
				groupSize[sh]++
				res, qerr := sr.Query(tup, shardKey)
				if qerr != nil {
					t.Fatalf("step %d/%v: query %v: %v", step, mode, tup, qerr)
				}
				present[sh] += len(res)
			}
			failed := 0
			for sh, size := range groupSize {
				switch present[sh] {
				case size:
				case 0:
					failed++
				default:
					t.Fatalf("step %d/%v: shard %d holds %d of its %d-tuple group", step, mode, sh, present[sh], size)
				}
			}
			if failed != 1 {
				t.Fatalf("step %d/%v: %d shard groups rolled back, want exactly 1", step, mode, failed)
			}
			// The batch is retryable: inserts are idempotent per tuple.
			if rerr := sr.InsertBatch(batch); rerr != nil {
				t.Fatalf("step %d/%v: retry failed: %v", step, mode, rerr)
			}
			if n := sr.Len(); n != len(batch) {
				t.Fatalf("step %d/%v: Len after retry = %d, want %d", step, mode, n, len(batch))
			}
		},
	})
}
