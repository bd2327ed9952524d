package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/wal"
)

// sourceOf hands out records in order, calling before(i) — i is the 1-based
// position of the record about to be handed over, len(records)+1 for the
// call that reports the source dry — ahead of each.
func sourceOf(records []wal.Commit, before func(i int)) CommitSource {
	next := 0
	return func() (wal.Commit, bool, error) {
		next++
		if before != nil {
			before(next)
		}
		if next > len(records) {
			return wal.Commit{}, false, nil
		}
		return records[next-1], true, nil
	}
}

// TestStrictRemoveRefusesDifferingDependent: a logged removal names the full
// stored tuple. One whose key is stored but whose dependent column differs
// describes a state the log never acknowledged, and strict replay must
// refuse it — on the bare fork and through ApplyCommit on both engines —
// leaving what is published untouched.
func TestStrictRemoveRefusesDifferingDependent(t *testing.T) {
	stored := paperex.SchedulerTuple(1, 1, paperex.StateS, 7)
	other := paperex.SchedulerTuple(2, 1, paperex.StateR, 3)
	seed := wal.Commit{Seq: 1, Inserted: []relation.Tuple{stored, other}}
	sharded := func() Engine {
		sr, err := NewSharded(schedSpecInternal(), paperex.SchedulerDecomp(),
			ShardOptions{ShardKey: []string{"ns", "pid"}, Shards: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	engines := []struct {
		name string
		make func() Engine
	}{
		{"sync", func() Engine { return NewSync(newSchedInternal(t)) }},
		{"sharded", sharded},
	}
	for _, tc := range []struct {
		name    string
		removed relation.Tuple
		refused bool
	}{
		{"exact tuple", stored, false},
		{"dependent cpu differs", paperex.SchedulerTuple(1, 1, paperex.StateS, 8), true},
		{"dependent state differs", paperex.SchedulerTuple(1, 1, paperex.StateR, 7), true},
		{"key absent", paperex.SchedulerTuple(3, 1, paperex.StateS, 7), true},
	} {
		bad := wal.Commit{Seq: 2, Removed: []relation.Tuple{tc.removed}}
		check := func(t *testing.T, err error, after []relation.Tuple) {
			t.Helper()
			if !tc.refused {
				if err != nil || len(after) != 1 || !after[0].Equal(other) {
					t.Fatalf("exact removal: err %v, left %v", err, after)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "want exactly 1") {
				t.Fatalf("removal of %v over stored %v = %v, want a strict-replay refusal", tc.removed, stored, err)
			}
			if len(after) != 2 {
				t.Fatalf("refused removal changed the state: %v", after)
			}
		}
		t.Run(tc.name+"/fork", func(t *testing.T) {
			base := newSchedInternal(t)
			if err := replayOnto(base, seed); err != nil {
				t.Fatal(err)
			}
			fork := base.beginVersion()
			err := replayOnto(fork, bad)
			// The fork is the one place a refusal may leave marks; what it
			// forked from is what stays published.
			read := fork
			if tc.refused {
				read = base
			}
			after, aerr := read.All()
			if aerr != nil {
				t.Fatal(aerr)
			}
			check(t, err, after)
		})
		for _, e := range engines {
			t.Run(tc.name+"/"+e.name, func(t *testing.T) {
				eng := e.make()
				if err := eng.ApplyCommit(seed); err != nil {
					t.Fatal(err)
				}
				err := eng.ApplyCommit(bad)
				after, aerr := eng.All()
				if aerr != nil {
					t.Fatal(aerr)
				}
				check(t, err, after)
				if ierr := eng.CheckInvariants(); ierr != nil {
					t.Fatal(ierr)
				}
			})
		}
	}
}

// TestApplyCommitsPublishesPerRun pins where the sharded applier's forks
// begin and end. A fixed stream routed A,A,B,B,B,A,(A+B),A over two shards
// must publish once per same-cell run — the split record once per piece —
// and the source, which is called with the open run unpublished, must see
// through the lock-free read path exactly the prefix that ends where the
// open run began. With record 6 made unreplayable the applier must report
// the five records before it published, and have published nothing else.
func TestApplyCommitsPublishesPerRun(t *testing.T) {
	newEngine := func() (*ShardedRelation, *obs.Metrics) {
		sr, err := NewSharded(schedSpecInternal(), paperex.SchedulerDecomp(),
			ShardOptions{ShardKey: []string{"ns", "pid"}, Shards: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		m := &obs.Metrics{}
		sr.SetMetrics(m)
		return sr, m
	}
	// Tuples by the shard they route to: a[i] lives on shard 0, b[i] on 1.
	var a, b []relation.Tuple
	probe, _ := newEngine()
	for pid := int64(1); len(a) < 6 || len(b) < 6; pid++ {
		tup := paperex.SchedulerTuple(1, pid, paperex.StateS, pid)
		if i, err := probe.ro.mustRoute(tup); err != nil {
			t.Fatal(err)
		} else if i == 0 {
			a = append(a, tup)
		} else {
			b = append(b, tup)
		}
	}
	ins := func(ts ...relation.Tuple) wal.Commit { return wal.Commit{Inserted: ts} }
	records := []wal.Commit{
		ins(a[0]), ins(a[1]), // run 1 on A
		ins(b[0]), {Removed: []relation.Tuple{b[0]}, Inserted: []relation.Tuple{b[1]}}, ins(b[2]), // run 2 on B
		ins(a[2]),       // run 3 on A
		ins(a[3], b[3]), // splits: one version per piece
		ins(a[4]),       // run 4 on A
	}
	for i := range records {
		records[i].Seq = uint64(i + 1)
	}
	// prefix[k] is the oracle state after records[:k].
	prefix := []*relation.Relation{relation.Empty(schedSpecInternal().Cols())}
	for _, c := range records {
		next := prefix[len(prefix)-1].Clone()
		for _, tup := range c.Removed {
			next.Remove(tup)
		}
		for _, tup := range c.Inserted {
			if err := next.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
		prefix = append(prefix, next)
	}
	// observe returns the k for which the engine's published state, read
	// lock-free, equals prefix[k].
	observe := func(t *testing.T, sr *ShardedRelation) int {
		t.Helper()
		ts, err := sr.All()
		if err != nil {
			t.Fatal(err)
		}
		got := relation.FromTuples(schedSpecInternal().Cols(), ts...)
		k := slices.IndexFunc(prefix, got.Equal)
		if k < 0 {
			t.Fatalf("published state is no prefix of the stream: %v", ts)
		}
		return k
	}

	t.Run("clean", func(t *testing.T) {
		sr, m := newEngine()
		var seen []int
		n, err := sr.ApplyCommits(sourceOf(records, func(i int) {
			k := observe(t, sr)
			if k > i-1 {
				t.Fatalf("source call %d saw prefix %d: ahead of the records handed over", i, k)
			}
			seen = append(seen, k)
		}))
		if err != nil || n != len(records) {
			t.Fatalf("ApplyCommits = %d, %v; want %d records published", n, err, len(records))
		}
		// Record i is pulled with the run before it still open, so it sees
		// the prefix that run started from; the last entry is the call that
		// found the source dry, with run 4 open.
		if want := []int{0, 0, 0, 2, 2, 2, 5, 7, 7}; !slices.Equal(seen, want) {
			t.Fatalf("prefixes seen by the source = %v, want %v", seen, want)
		}
		if got := observe(t, sr); got != len(records) {
			t.Fatalf("final state is prefix %d, want %d", got, len(records))
		}
		if got, want := m.Snapshot().SnapPublishes, uint64(4+2); got != want {
			t.Fatalf("snap.publishes = %d, want %d: one per same-cell run plus one per piece of the split record", got, want)
		}
		if err := sr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("bad record 6", func(t *testing.T) {
		sr, m := newEngine()
		bad := slices.Clone(records)
		// a[5] is new and goes onto the fork; a[0] is already stored, and
		// strict replay refuses the record with half of it applied.
		bad[5] = wal.Commit{Seq: 6, Inserted: []relation.Tuple{a[5], a[0]}}
		n, err := sr.ApplyCommits(sourceOf(bad, nil))
		if err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("ApplyCommits over a duplicate insert = %v, want a strict-replay refusal", err)
		}
		if n != 5 {
			t.Fatalf("ApplyCommits reported %d records published, want the 5 before the bad one", n)
		}
		if got := observe(t, sr); got != 5 {
			t.Fatalf("published state is prefix %d, want 5", got)
		}
		s := m.Snapshot()
		if s.SnapPublishes != 2 || s.SnapDrops != 1 {
			t.Fatalf("snap.publishes = %d, snap.drops = %d; want runs 1 and 2 published and run 3 dropped", s.SnapPublishes, s.SnapDrops)
		}
	})
}
