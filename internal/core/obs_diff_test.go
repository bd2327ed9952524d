package core_test

// Differential test of the observability counters: every engine tier is
// driven through thousands of randomized operations while an oracle —
// built from the counter contract documented on obs.Metrics and fed plan
// provenance probed from an unmetered twin relation — accumulates the
// exact counter values the run must produce. The snapshots must match
// field for field; a drifting counter is a bug in either the engine's
// instrumentation or the documented contract, and both matter.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/value"
)

const diffOps = 10000

var schedAllCols = []string{"ns", "pid", "state", "cpu"}

// obsOracle accumulates the counter deltas the obs contract promises. The
// probe relation (no metrics attached) shares the spec and decomposition,
// so its plan candidates expose the same compiled/point provenance every
// tier under test resolves.
type obsOracle struct {
	t      *testing.T
	exp    obs.Snapshot
	shapes map[string]bool
	probe  *core.Relation

	// mvcc marks the tier under test as snapshot-published (SyncRelation,
	// ShardedRelation): read ops count SnapReads and state-changing write
	// ops count SnapPublishes; on a directly-mutated Relation all the
	// snapshot counters must stay zero.
	mvcc bool
}

func newObsOracle(t *testing.T) *obsOracle {
	return &obsOracle{t: t, shapes: map[string]bool{}, probe: newSched(t)}
}

// lookup accounts n memoized plan-cache lookups of one shape. n > 1 models
// a fan-out over n shards: the shards share one singleflight cache, so a
// new shape is planned exactly once and the other n-1 callers count as
// hits whether they waited in flight or hit the published entry.
func (o *obsOracle) lookup(in, out []string, n uint64) (compiled, point, vec bool) {
	o.t.Helper()
	cand, err := o.probe.PlanCandidate(in, out)
	if err != nil {
		o.t.Fatalf("probe plan {%v}->{%v}: %v", in, out, err)
	}
	key := strings.Join(relation.NewCols(in...).Names(), ",") + "|" +
		strings.Join(relation.NewCols(out...).Names(), ",")
	if o.shapes[key] {
		o.exp.PlanCacheHits += n
	} else {
		o.shapes[key] = true
		o.exp.PlanCacheMisses++
		o.exp.PlanCacheHits += n - 1
		if cand.Prog != nil {
			o.exp.PlanCompiled++
			if cand.Batch != nil {
				o.exp.PlanVectorized++
			}
		} else {
			o.exp.PlanFallbacks++
		}
	}
	return cand.Prog != nil, cand.Point != nil, cand.Batch != nil
}

// rangeQuery accounts one QueryRange of a shape: a range shape is a cache
// entry of its own (the signature includes the column), promoted with a
// batch program and no closure form — PlanVectorized alone — and, on the
// scheduler, never bailing: every execution is a vectorized one.
func (o *obsOracle) rangeQuery(in, out []string, col string) {
	key := strings.Join(relation.NewCols(in...).Names(), ",") + "|" +
		strings.Join(relation.NewCols(out...).Names(), ",") + "|" + col
	if o.shapes[key] {
		o.exp.PlanCacheHits++
	} else {
		o.shapes[key] = true
		o.exp.PlanCacheMisses++
		o.exp.PlanVectorized++
	}
	o.exp.QueryRange++
	o.exp.ExecVectorized++
}

// exec accounts n executions through the one dispatch ladder below the
// point plan (Query, QueryFunc and queryPoint's fallback alike): the batch
// program when the shape vectorized (none of the scheduler's shapes bail at
// run time), else the closure program, else the interpreter.
func (o *obsOracle) exec(compiled, vec bool, n uint64) {
	switch {
	case vec:
		o.exp.ExecVectorized += n
	case compiled:
		o.exp.ExecCompiled += n
	default:
		o.exp.ExecInterpreted += n
	}
}

func (o *obsOracle) phases(n uint64) {
	o.exp.MutValidates += n
	o.exp.MutApplies += n
}

// snapRead accounts n snapshot acquisitions by lock-free read operations
// (no-ops on the non-MVCC tier).
func (o *obsOracle) snapRead(n uint64) {
	if o.mvcc {
		o.exp.SnapReads += n
	}
}

// snapPublish accounts one version publication when the write changed the
// relation (publish-on-change; no-op writes publish nothing, and none of
// the driven operations fail, so SnapDrops stays zero).
func (o *obsOracle) snapPublish(changed bool) {
	if o.mvcc && changed {
		o.exp.SnapPublishes++
	}
}

// canInPlaceCPU reports whether updating only cpu can run in place on the
// scheduler decomposition (it can: cpu lives in the shared unit w).
func (o *obsOracle) canInPlaceCPU() bool {
	return o.probe.Instance().CanUpdateInPlace(relation.NewCols("cpu"))
}

// singleTierAPI is the operation surface Relation and SyncRelation share.
type singleTierAPI interface {
	Insert(relation.Tuple) error
	Remove(relation.Tuple) (int, error)
	Update(s, u relation.Tuple) (int, error)
	Query(relation.Tuple, []string) ([]relation.Tuple, error)
	QueryFunc(relation.Tuple, []string, func(relation.Tuple) bool) error
	QueryRange(relation.Tuple, string, *value.Value, *value.Value, []string) ([]relation.Tuple, error)
}

func diffTuple(rnd *rand.Rand) (key string, tup relation.Tuple) {
	ns, pid := int64(rnd.Intn(4)), int64(rnd.Intn(25))
	st := []int64{paperex.StateS, paperex.StateR}[rnd.Intn(2)]
	cpu := int64(rnd.Intn(8))
	return fmt.Sprintf("%d|%d", ns, pid), paperex.SchedulerTuple(ns, pid, st, cpu)
}

func keyPat(tup relation.Tuple) relation.Tuple {
	return relation.NewTuple(
		relation.BindInt("ns", tup.MustGet("ns").Int()),
		relation.BindInt("pid", tup.MustGet("pid").Int()))
}

// driveSingleTier runs one randomized operation against a single-threaded
// or lock-wrapped engine and mirrors it in the oracle and model.
func driveSingleTier(t *testing.T, rnd *rand.Rand, api singleTierAPI, o *obsOracle, model map[string]relation.Tuple) {
	t.Helper()
	key, tup := diffTuple(rnd)
	_, stored := model[key]
	switch rnd.Intn(7) {
	case 0, 1: // insert: fresh, or an exact duplicate (a no-op with no phases)
		if prev, ok := model[key]; ok {
			tup = prev
		}
		if err := api.Insert(tup); err != nil {
			t.Fatalf("insert %v: %v", tup, err)
		}
		o.exp.Inserts++
		o.snapPublish(!stored)
		if !stored {
			o.phases(1)
			model[key] = tup
		}
	case 2: // remove by key pattern
		n, err := api.Remove(keyPat(tup))
		if err != nil {
			t.Fatalf("remove: %v", err)
		}
		o.exp.Removes++
		o.snapPublish(stored)
		c, _, v := o.lookup([]string{"ns", "pid"}, schedAllCols, 1)
		o.exec(c, v, 1)
		want := 0
		if stored {
			want = 1
			o.phases(1)
			delete(model, key)
		}
		if n != want {
			t.Fatalf("remove %s: n = %d, want %d", key, n, want)
		}
	case 3: // point query
		if _, err := api.Query(keyPat(tup), []string{"cpu"}); err != nil {
			t.Fatalf("query: %v", err)
		}
		o.exp.QueryCollect++
		o.snapRead(1)
		c, _, v := o.lookup([]string{"ns", "pid"}, []string{"cpu"}, 1)
		o.exec(c, v, 1)
	case 4: // streaming query by state
		pat := relation.NewTuple(relation.BindInt("state", tup.MustGet("state").Int()))
		if err := api.QueryFunc(pat, []string{"ns", "pid"}, func(relation.Tuple) bool { return true }); err != nil {
			t.Fatalf("query func: %v", err)
		}
		o.exp.QueryStream++
		o.snapRead(1)
		c, _, v := o.lookup([]string{"state"}, []string{"ns", "pid"}, 1)
		o.exec(c, v, 1)
	case 5: // range query over cpu
		lo, hi := value.OfInt(2), value.OfInt(6)
		if _, err := api.QueryRange(relation.NewTuple(), "cpu", &lo, &hi, []string{"ns", "pid"}); err != nil {
			t.Fatalf("query range: %v", err)
		}
		o.snapRead(1)
		o.rangeQuery(nil, []string{"ns", "pid"}, "cpu")
	case 6: // keyed update of the in-place column cpu
		u := relation.NewTuple(relation.BindInt("cpu", int64(rnd.Intn(8))))
		n, err := api.Update(keyPat(tup), u)
		if err != nil {
			t.Fatalf("update: %v", err)
		}
		o.exp.Updates++
		o.snapPublish(stored)
		c, _, v := o.lookup([]string{"ns", "pid"}, schedAllCols, 1)
		o.exec(c, v, 1)
		want := 0
		if stored {
			want = 1
			if o.canInPlaceCPU() {
				o.phases(1) // one in-place UpdateInPlace
			} else {
				o.phases(2) // remove + reinsert
			}
			model[key] = model[key].Merge(u)
		}
		if n != want {
			t.Fatalf("update %s: n = %d, want %d", key, n, want)
		}
	}
}

// checkSnapshot compares the metered run against the oracle exactly. The
// fan-out latency histogram's durations are not predictable; its count
// must equal the fan-out count and the rest is taken as observed.
func checkSnapshot(t *testing.T, m *obs.Metrics, o *obsOracle) {
	t.Helper()
	got := m.Snapshot()
	if got.FanOutLatency.Count != got.FanOuts {
		t.Fatalf("fan-out latency count %d != fan-outs %d", got.FanOutLatency.Count, got.FanOuts)
	}
	o.exp.FanOutLatency = got.FanOutLatency
	// How many nodes COW cloning copies per version depends on graph
	// sharing at each fork, so the clone counters are taken as observed —
	// after the sanity check that clones happen only when versions were
	// actually forked and kept (published) or discarded (dropped), and
	// that every published version cloned at least its root.
	if o.exp.SnapPublishes == 0 && o.exp.SnapDrops == 0 {
		if got.CowNodeClones != 0 || got.CowMapClones != 0 {
			t.Fatalf("cow clone counters %d/%d nonzero without any published or dropped version",
				got.CowNodeClones, got.CowMapClones)
		}
	} else if got.CowNodeClones < o.exp.SnapPublishes {
		t.Fatalf("cow node clones %d < published versions %d (each publish clones at least the root)",
			got.CowNodeClones, o.exp.SnapPublishes)
	}
	o.exp.CowNodeClones = got.CowNodeClones
	o.exp.CowMapClones = got.CowMapClones
	if got != o.exp {
		t.Fatalf("counters diverge from oracle\n got: %s\nwant: %s", got.String(), o.exp.String())
	}
}

func TestObsDifferentialRelation(t *testing.T) {
	r := newSched(t)
	m := &obs.Metrics{}
	r.SetMetrics(m)
	o := newObsOracle(t)
	model := map[string]relation.Tuple{}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < diffOps; i++ {
		driveSingleTier(t, rnd, r, o, model)
	}
	checkSnapshot(t, m, o)
	if r.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", r.Len(), len(model))
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestObsDifferentialSync(t *testing.T) {
	s := core.NewSync(newSched(t))
	m := &obs.Metrics{}
	s.SetMetrics(m)
	o := newObsOracle(t)
	o.mvcc = true
	model := map[string]relation.Tuple{}
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < diffOps; i++ {
		driveSingleTier(t, rnd, s, o, model)
	}
	checkSnapshot(t, m, o)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestObsDifferentialSharded(t *testing.T) {
	const shards = 4
	sr, err := core.NewSharded(schedSpec(), paperex.SchedulerDecomp(), core.ShardOptions{
		ShardKey: []string{"ns", "pid"},
		Shards:   shards,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := &obs.Metrics{}
	sr.SetMetrics(m)
	o := newObsOracle(t)
	o.mvcc = true
	model := map[string]relation.Tuple{}
	rnd := rand.New(rand.NewSource(3))

	// The oracle models the scheduler's {ns,pid}->all shape as having no
	// compiled point plan (the plan is a join, which the point compiler
	// declines); updatePoint and Upsert therefore take their interpreter
	// fallbacks. Fail loudly if the planner ever learns to point-compile it.
	if _, point, _ := o.lookup([]string{"ns", "pid"}, schedAllCols, 0); point {
		t.Fatal("scheduler {ns,pid}->all gained a point plan; the sharded oracle below must be extended")
	}
	o.shapes = map[string]bool{} // forget the probe-only lookup
	o.exp = obs.Snapshot{}

	// updateFallback accounts updatePoint's pp==nil path: a second lookup
	// of the same {ns,pid}->all shape inside the generic update, one plan
	// execution to find the match, and the usual phases when it exists.
	updateFallback := func(stored bool) {
		c, _, v := o.lookup([]string{"ns", "pid"}, schedAllCols, 1)
		o.exec(c, v, 1)
		if stored {
			if o.canInPlaceCPU() {
				o.phases(1)
			} else {
				o.phases(2)
			}
		}
	}

	for i := 0; i < diffOps; i++ {
		key, tup := diffTuple(rnd)
		_, stored := model[key]
		switch rnd.Intn(8) {
		case 0, 1: // routed insert
			if prev, ok := model[key]; ok {
				tup = prev
			}
			if err := sr.Insert(tup); err != nil {
				t.Fatalf("insert: %v", err)
			}
			o.exp.RoutedOps++
			o.exp.Inserts++
			o.snapPublish(!stored)
			if !stored {
				o.phases(1)
				model[key] = tup
			}
		case 2: // routed remove
			n, err := sr.Remove(keyPat(tup))
			if err != nil {
				t.Fatalf("remove: %v", err)
			}
			o.exp.RoutedOps++
			o.exp.Removes++
			o.snapPublish(stored)
			c, _, v := o.lookup([]string{"ns", "pid"}, schedAllCols, 1)
			o.exec(c, v, 1)
			want := 0
			if stored {
				want = 1
				o.phases(1)
				delete(model, key)
			}
			if n != want {
				t.Fatalf("remove %s: n = %d, want %d", key, n, want)
			}
		case 3: // routed point query (keyed fast path)
			if _, err := sr.Query(keyPat(tup), []string{"cpu"}); err != nil {
				t.Fatalf("query: %v", err)
			}
			o.exp.RoutedOps++
			o.exp.QueryPoint++
			o.snapRead(1)
			c, point, v := o.lookup([]string{"ns", "pid"}, []string{"cpu"}, 1)
			if point {
				o.exp.ExecPoint++
			} else {
				o.exec(c, v, 1)
			}
		case 4: // fan-out query by state
			pat := relation.NewTuple(relation.BindInt("state", tup.MustGet("state").Int()))
			if _, err := sr.Query(pat, []string{"ns", "pid"}); err != nil {
				t.Fatalf("query: %v", err)
			}
			o.exp.FanOuts++
			o.exp.QueryCollect += shards
			o.snapRead(shards)
			c, _, v := o.lookup([]string{"state"}, []string{"ns", "pid"}, shards)
			o.exec(c, v, shards)
		case 5: // broadcast streaming query
			if err := sr.QueryFunc(relation.NewTuple(), schedAllCols, func(relation.Tuple) bool { return true }); err != nil {
				t.Fatalf("query func: %v", err)
			}
			o.exp.FanOuts++
			o.exp.QueryStream += shards
			o.snapRead(shards)
			c, _, v := o.lookup(nil, schedAllCols, shards)
			o.exec(c, v, shards)
		case 6: // routed keyed update (updatePoint, interpreter fallback)
			u := relation.NewTuple(relation.BindInt("cpu", int64(rnd.Intn(8))))
			n, err := sr.Update(keyPat(tup), u)
			if err != nil {
				t.Fatalf("update: %v", err)
			}
			o.exp.RoutedOps++
			o.exp.Updates++
			o.snapPublish(stored)
			o.lookup([]string{"ns", "pid"}, schedAllCols, 1)
			updateFallback(stored)
			want := 0
			if stored {
				want = 1
				model[key] = model[key].Merge(u)
			}
			if n != want {
				t.Fatalf("update %s: n = %d, want %d", key, n, want)
			}
		case 7: // upsert: point read, then insert or point update
			newCPU := int64(rnd.Intn(8))
			err := sr.Upsert(keyPat(tup), func(cur relation.Tuple, found bool) (relation.Tuple, error) {
				if found != stored {
					t.Fatalf("upsert %s: found = %v, model says %v", key, found, stored)
				}
				if !found {
					return relation.NewTuple(
						relation.BindInt("state", tup.MustGet("state").Int()),
						relation.BindInt("cpu", newCPU)), nil
				}
				return relation.NewTuple(relation.BindInt("cpu", newCPU)), nil
			})
			if err != nil {
				t.Fatalf("upsert: %v", err)
			}
			o.exp.RoutedOps++
			o.exp.Upserts++
			// The upsert's read runs on the write fork under the shard's
			// writer mutex, not through the lock-free snapshot path, so it
			// counts no SnapReads; both outcome branches change the shard
			// (fresh insert or a real point update), so exactly one version
			// publishes.
			o.snapPublish(true)
			o.exp.QueryPoint++
			c, _, v := o.lookup([]string{"ns", "pid"}, schedAllCols, 1)
			o.exec(c, v, 1) // point read falls to the streaming ladder (no point plan)
			u := relation.NewTuple(relation.BindInt("cpu", newCPU))
			if !stored {
				o.exp.Inserts++
				o.phases(1)
				model[key] = keyPat(tup).Merge(relation.NewTuple(
					relation.BindInt("state", tup.MustGet("state").Int()))).Merge(u)
			} else {
				o.exp.Updates++
				o.lookup([]string{"ns", "pid"}, schedAllCols, 1)
				updateFallback(true)
				model[key] = model[key].Merge(u)
			}
		}
	}
	checkSnapshot(t, m, o)
	if sr.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", sr.Len(), len(model))
	}
	if err := sr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
