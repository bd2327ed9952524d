package core_test

// A keyed point read is an ordinary plan on the one read ladder. A pattern
// binding the scheduler's key {ns, pid} reads through Relation.Query on
// every tier — bare, sync, the routed cell of a sharded engine, durable and
// a follower — so each tier must answer like the relational oracle, run the
// batch program (exec.vectorized, never the interpreter), and allocate
// exactly what the bare relation does for the same read.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/race"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/wal"
)

// A pointTier is one engine tier with the metrics sink attached to it.
type pointTier struct {
	name string
	e    interface {
		Query(pat relation.Tuple, out []string) ([]relation.Tuple, error)
	}
	m *obs.Metrics
}

// pointTiers returns the scheduler relation holding tuples on the five
// tiers a keyed read can reach, in a fixed order starting with bare.
func pointTiers(t *testing.T, tuples []relation.Tuple) []pointTier {
	t.Helper()
	sharded, err := core.NewSharded(schedSpec(), paperex.SchedulerDecomp(),
		core.ShardOptions{ShardKey: []string{"ns", "pid"}, Shards: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bare, synced := newSched(t), core.NewSync(newSched(t))
	durable, primary := newDurableSync(t, t.TempDir(), wal.SyncOff), newDurableSync(t, t.TempDir(), wal.SyncOff)
	for _, tu := range tuples {
		for _, e := range []interface{ Insert(relation.Tuple) error }{bare, synced, sharded, durable, primary} {
			if err := e.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	pub, err := repl.NewPublisher(primary, repl.PublisherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })
	fm := &obs.Metrics{}
	f, err := repl.NewFollower(schedSpec(), repl.InProcDialer(pub), repl.FollowerOptions{Decomp: paperex.SchedulerDecomp(), Metrics: fm})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := f.WaitFor(pub.Head(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	tiers := []pointTier{{name: "bare", e: bare}, {name: "sync", e: synced}, {name: "sharded", e: sharded}, {name: "durable", e: durable}}
	for i := range tiers {
		tiers[i].m = &obs.Metrics{}
		tiers[i].e.(interface{ SetMetrics(*obs.Metrics) }).SetMetrics(tiers[i].m)
	}
	return append(tiers, pointTier{name: "follower", e: f, m: fm})
}

func TestKeyedPointFallbackTakesTheLadder(t *testing.T) {
	var tuples []relation.Tuple
	oracle := relation.Empty(schedSpec().Cols())
	for i := int64(0); i < 64; i++ {
		tu := paperex.SchedulerTuple(i%8, i, i%2, i*3)
		tuples = append(tuples, tu)
		if err := oracle.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	tiers := pointTiers(t, tuples)
	key := func(ns, pid int64) relation.Tuple {
		return relation.NewTuple(relation.BindInt("ns", ns), relation.BindInt("pid", pid))
	}
	all := schedSpec().Cols().Names()
	for _, c := range []struct {
		name string
		pat  relation.Tuple
		out  []string
	}{
		{"key→cpu", key(3, 11), []string{"cpu"}},
		// Every column: the scheduler decomposition answers it with a join
		// of its two paths.
		{"key→all (join)", key(3, 11), all},
		{"absent key→all", key(3, 999), all},
		// 1<<62 does not fit an inline code: the lookup goes to the
		// dictionary, which has never seen it.
		{"never-interned key→cpu", key(3, 1<<62), []string{"cpu"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := oracle.Query(c.pat, relation.NewCols(c.out...))
			for _, tr := range tiers {
				before := tr.m.Snapshot()
				got, err := tr.e.Query(c.pat, c.out)
				if err != nil {
					t.Fatalf("%s: %v", tr.name, err)
				}
				if !tupleSlicesEqual(got, want) {
					t.Fatalf("%s: Query(%v, %v) = %v, oracle %v", tr.name, c.pat, c.out, got, want)
				}
				d := tr.m.Snapshot().Sub(before)
				wantCounts := obs.Snapshot{QueryCollect: 1, ExecVectorized: 1}
				gotCounts := obs.Snapshot{QueryCollect: d.QueryCollect, QueryStream: d.QueryStream, QueryRange: d.QueryRange,
					ExecVectorized: d.ExecVectorized, ExecInterpreted: d.ExecInterpreted, ExecPoint: d.ExecPoint,
					ExecCompiled: d.ExecCompiled, VecFallbacks: d.VecFallbacks}
				if gotCounts != wantCounts {
					t.Fatalf("%s: executor counters\n got: %s\nwant: %s", tr.name, gotCounts.String(), wantCounts.String())
				}
			}
			if testing.CoverMode() != "" {
				t.Skip("coverage instrumentation allocates")
			}
			if race.Enabled {
				t.Skip("the race detector allocates")
			}
			var bare float64
			for i, tr := range tiers {
				n := testing.AllocsPerRun(100, func() {
					if _, err := tr.e.Query(c.pat, c.out); err != nil {
						t.Fatal(err)
					}
				})
				if i == 0 {
					bare = n
				} else if n != bare {
					t.Errorf("%s: %.1f objects per read, bare %.1f", tr.name, n, bare)
				}
			}
			t.Logf("%.0f objects per read on every tier", bare)
		})
	}
}
