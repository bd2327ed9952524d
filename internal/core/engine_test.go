package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/wal"
)

// TestEveryTierCommitsThroughOneCell drives one seeded history through
// every concurrent tier behind core.Engine and holds each to the
// internal/relation oracle on two counts: the final state, and the number
// of versions the tier forked to completion. Every operation in the
// history touches exactly one cell (it binds the shard key), so an engine
// that commits through the one cell path publishes once per write that
// changed the relation, drops once per write that failed, and does
// neither for a no-op — on every tier alike.
func TestEveryTierCommitsThroughOneCell(t *testing.T) {
	sharded := func(shards int) *core.ShardedRelation {
		sr := mustNewSharded(schedSpec(), paperex.SchedulerDecomp(), core.ShardOptions{
			ShardKey: []string{"ns", "pid"},
			Shards:   shards,
			Workers:  1,
		})
		core.SetCheckFDs(sr, true)
		return sr
	}
	sync := newSched(t)
	sync.CheckFDs = true
	durable4, _ := newDurableSharded(t, t.TempDir(), 4, wal.SyncOff)
	engines := []struct {
		name string
		eng  core.Engine
	}{
		{"sync", core.NewSync(sync)},
		{"sharded x1", sharded(1)},
		{"sharded x4", sharded(4)},
		{"durable 1 cell", newDurableSync(t, t.TempDir(), wal.SyncOff)},
		{"durable 4 cells", durable4},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			m := &obs.Metrics{}
			e.eng.SetMetrics(m)
			oracle := relation.Empty(schedSpec().Cols())
			rnd := rand.New(rand.NewSource(13))
			var publishes, drops uint64
			for op := 0; op < 2000; op++ {
				ns, pid := rnd.Int63n(3), rnd.Int63n(24)
				key := relation.NewTuple(relation.BindInt("ns", ns), relation.BindInt("pid", pid))
				stored := oracle.Query(key, oracle.Cols())
				tup := paperex.SchedulerTuple(ns, pid, rnd.Int63n(2), rnd.Int63n(50))
				switch rnd.Intn(4) {
				case 0: // insert: new, duplicate (no-op), or FD conflict (error)
					if len(stored) == 1 && rnd.Intn(2) == 0 {
						tup = stored[0]
					}
					err := e.eng.Insert(tup)
					switch {
					case len(stored) == 0:
						publishes++
						if oerr := oracle.Insert(tup); err != nil || oerr != nil {
							t.Fatalf("op %d: insert %v: engine %v, oracle %v", op, tup, err, oerr)
						}
					case tup.Equal(stored[0]):
						if err != nil {
							t.Fatalf("op %d: duplicate insert: %v", op, err)
						}
					default:
						drops++
						if err == nil {
							t.Fatalf("op %d: insert %v over %v broke ns,pid → state,cpu silently", op, tup, stored[0])
						}
					}
				case 1: // a one-tuple batch rides the same cell body
					err := e.eng.InsertBatch([]relation.Tuple{tup})
					switch {
					case len(stored) == 0:
						publishes++
						if oerr := oracle.Insert(tup); err != nil || oerr != nil {
							t.Fatalf("op %d: batch insert %v: engine %v, oracle %v", op, tup, err, oerr)
						}
					case !tup.Equal(stored[0]):
						drops++
						if err == nil {
							t.Fatalf("op %d: batch insert %v over %v broke the FD silently", op, tup, stored[0])
						}
					}
				case 2:
					n, err := e.eng.Remove(key)
					if want := oracle.Remove(key); err != nil || n != want {
						t.Fatalf("op %d: remove %v = %d, %v; oracle removed %d", op, key, n, err, want)
					}
					publishes += uint64(n)
				case 3:
					u := relation.NewTuple(relation.BindInt("cpu", rnd.Int63n(50)))
					n, err := e.eng.Update(key, u)
					if want := oracle.Update(key, u); err != nil || n != want {
						t.Fatalf("op %d: update %v = %d, %v; oracle updated %d", op, key, n, err, want)
					}
					publishes += uint64(n)
				}
			}
			got, err := e.eng.All()
			if err != nil {
				t.Fatal(err)
			}
			state := relation.Empty(oracle.Cols())
			for _, tup := range got {
				if err := state.Insert(tup); err != nil {
					t.Fatal(err)
				}
			}
			if !state.Equal(oracle) {
				t.Fatalf("final state diverged from the oracle: %d tuples, want %d", len(got), oracle.Len())
			}
			if err := e.eng.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			snap := m.Snapshot()
			if snap.SnapPublishes != publishes || snap.SnapDrops != drops {
				t.Fatalf("snap.publishes = %d, snap.drops = %d; the history has %d changing and %d failing writes",
					snap.SnapPublishes, snap.SnapDrops, publishes, drops)
			}
			if publishes == 0 || drops == 0 {
				t.Fatalf("vacuous history: %d publishes, %d drops", publishes, drops)
			}
		})
	}
}
