package core_test

// MVCC snapshot-read semantics tests.
//
// The streaming-callback tests pin the contract change that came with the
// lock-free read path: a QueryFunc callback may mutate the relation it is
// iterating (under the RWMutex tiers this deadlocked; under MVCC the
// stream keeps reading its pinned snapshot while the mutation publishes a
// new version).
//
// The concurrent differential tests run randomized reader/writer
// schedules under -race (ci-race picks them up by the Differential name)
// and assert snapshot isolation: every state a reader observes is exactly
// some state the writer published — never a torn intermediate — and the
// states one reader observes are monotone in publication order.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// serializeAll canonicalizes a full-relation query result into one
// comparable string, order-insensitively (rows are re-sorted lexically so
// the model does not have to mirror the engine's canonical sort order).
func serializeAll(res []relation.Tuple) string {
	rows := make([]string, len(res))
	for i, t := range res {
		rows[i] = fmt.Sprintf("%d|%d|%d|%d",
			t.MustGet("ns").Int(), t.MustGet("pid").Int(),
			t.MustGet("state").Int(), t.MustGet("cpu").Int())
	}
	sort.Strings(rows)
	return strings.Join(rows, ";")
}

func TestSyncMutateFromStreamingCallbackDifferential(t *testing.T) {
	s := core.NewSync(newSched(t))
	for i := int64(0); i < 8; i++ {
		if err := s.Insert(paperex.SchedulerTuple(0, i, paperex.StateR, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Mutate from inside the stream: remove every visited row and insert a
	// fresh one. Under the old RWMutex tier this deadlocked on the first
	// callback; under MVCC the stream iterates its pinned snapshot, so it
	// must see exactly the 8 pre-mutation rows.
	seen := 0
	err := s.QueryFunc(relation.NewTuple(), []string{"ns", "pid"}, func(tu relation.Tuple) bool {
		seen++
		pid := tu.MustGet("pid").Int()
		if _, err := s.Remove(relation.NewTuple(relation.BindInt("ns", 0), relation.BindInt("pid", pid))); err != nil {
			t.Errorf("remove from callback: %v", err)
		}
		if err := s.Insert(paperex.SchedulerTuple(1, pid, paperex.StateS, pid)); err != nil {
			t.Errorf("insert from callback: %v", err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 8 {
		t.Fatalf("stream saw %d rows of its snapshot, want 8", seen)
	}
	// After the stream, the published state reflects all callback writes.
	if got := s.Len(); got != 8 {
		t.Fatalf("Len = %d after callback rewrites, want 8", got)
	}
	res, err := s.Query(relation.NewTuple(relation.BindInt("ns", 1)), []string{"pid"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 8 {
		t.Fatalf("callback inserts visible: %d rows in ns 1, want 8", len(res))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedMutateFromStreamingCallbackDifferential(t *testing.T) {
	sr := mustNewSharded(schedSpec(), paperex.SchedulerDecomp(), core.ShardOptions{
		ShardKey: []string{"ns", "pid"},
		Shards:   4,
		Workers:  1,
	})
	for i := int64(0); i < 12; i++ {
		if err := sr.Insert(paperex.SchedulerTuple(0, i, paperex.StateR, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Broadcast stream mutating its own relation from the callback: every
	// visited row gets its cpu bumped via a routed update — which locks the
	// owning shard's writer mutex while the stream holds no lock at all.
	seen := 0
	err := sr.QueryFunc(relation.NewTuple(), []string{"ns", "pid", "cpu"}, func(tu relation.Tuple) bool {
		seen++
		key := relation.NewTuple(
			relation.BindInt("ns", tu.MustGet("ns").Int()),
			relation.BindInt("pid", tu.MustGet("pid").Int()))
		u := relation.NewTuple(relation.BindInt("cpu", tu.MustGet("cpu").Int()+100))
		if n, err := sr.Update(key, u); err != nil || n != 1 {
			t.Errorf("update from callback: n=%d err=%v", n, err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 12 {
		t.Fatalf("stream saw %d rows, want 12", seen)
	}
	res, err := sr.Query(relation.NewTuple(), schedAllCols)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range res {
		if cpu := tu.MustGet("cpu").Int(); cpu < 100 {
			t.Fatalf("row %v missed its callback update", tu)
		}
	}
	if err := sr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncConcurrentDifferential: one writer publishes a deterministic
// stream of states while readers continuously query the full relation.
// The writer registers each state's canonical serialization (keyed to its
// publication index) BEFORE publishing it, so a reader can never observe
// a state that is not in the registry — any unregistered observation is a
// torn or invented state. Per reader, observed indices must be monotone
// non-decreasing: versions are published in order and the pointer is
// loaded atomically.
func TestSyncConcurrentDifferential(t *testing.T) {
	s := core.NewSync(newSched(t))

	const writes = 400
	const readers = 4

	// The registry maps each state serialization to every publication
	// index it appeared at (a remove can revisit an earlier state, so one
	// serialization may publish more than once). A reader matches its
	// observations greedily against the publication sequence: each
	// observed state must have SOME publication index >= the index matched
	// to the previous observation — exactly the condition for the
	// observation stream to be a subsequence of the published states.
	var regMu sync.Mutex
	registry := map[string][]int{}
	register := func(state string, idx int) {
		regMu.Lock()
		registry[state] = append(registry[state], idx) // indices arrive increasing
		regMu.Unlock()
	}
	// lookupFrom returns the smallest publication index of state that is
	// >= from, or ok=false when the state was never published at or after
	// from.
	lookupFrom := func(state string, from int) (int, bool) {
		regMu.Lock()
		defer regMu.Unlock()
		for _, idx := range registry[state] {
			if idx >= from {
				return idx, true
			}
		}
		return 0, false
	}

	model := map[int64]relation.Tuple{}
	serializeModel := func() string {
		var rows []relation.Tuple
		for _, tu := range model {
			rows = append(rows, tu)
		}
		return serializeAll(rows)
	}
	register(serializeModel(), 0) // the initial (empty) state

	var done atomic.Bool
	var wg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			last := 0
			obsCount := 0
			for !done.Load() || obsCount == 0 {
				res, err := s.Query(relation.NewTuple(), schedAllCols)
				if err != nil {
					t.Errorf("reader %d: %v", rd, err)
					return
				}
				state := serializeAll(res)
				idx, ok := lookupFrom(state, last)
				if !ok {
					if _, ever := lookupFrom(state, 0); !ever {
						t.Errorf("reader %d observed unregistered state %q — torn or invented snapshot", rd, state)
					} else {
						t.Errorf("reader %d: snapshot order went backwards (state %q only published before index %d)", rd, state, last)
					}
					return
				}
				last = idx
				obsCount++
			}
		}(rd)
	}

	for i := 1; i <= writes; i++ {
		pid := int64(i % 16)
		switch i % 3 {
		case 0:
			delete(model, pid)
			register(serializeModel(), i)
			if _, err := s.Remove(relation.NewTuple(relation.BindInt("ns", 0), relation.BindInt("pid", pid))); err != nil {
				t.Fatalf("write %d remove: %v", i, err)
			}
		case 1:
			tu := paperex.SchedulerTuple(0, pid, paperex.StateR, int64(i))
			if prev, ok := model[pid]; ok {
				tu = prev // duplicate insert: a no-op, state unchanged
			}
			model[pid] = tu
			register(serializeModel(), i)
			if err := s.Insert(tu); err != nil {
				t.Fatalf("write %d insert: %v", i, err)
			}
		case 2:
			if _, ok := model[pid]; ok {
				u := relation.NewTuple(relation.BindInt("cpu", int64(i)))
				model[pid] = model[pid].Merge(u)
				register(serializeModel(), i)
				if n, err := s.Update(relation.NewTuple(relation.BindInt("ns", 0), relation.BindInt("pid", pid)), u); err != nil || n != 1 {
					t.Fatalf("write %d update: n=%d err=%v", i, n, err)
				}
			}
		}
	}
	done.Store(true)
	wg.Wait()

	// The final published state must be the final model state.
	res, err := s.Query(relation.NewTuple(), schedAllCols)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := serializeAll(res), serializeModel(); got != want {
		t.Fatalf("final state %q, want %q", got, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncPinnedSnapshotsUnderListChurnDifferential holds the scheduler's
// two run-queue lists at about a thousand processes each — some sixty
// blocks — and commits seeded spawn / exit / set-state / charge operations
// against them while a reader streams {state}→{ns,pid} off whatever version
// is published. Every hundredth commit pins Snapshot() beside the oracle of
// that moment; at the end every pinned version must still read back exactly
// its oracle and pass CheckInvariants. A block or directory that a later
// version wrote in place instead of copying shows up here as a pinned
// version that changed — which pointer identity of the version cannot show.
func TestSyncPinnedSnapshotsUnderListChurnDifferential(t *testing.T) {
	const (
		procs   = 2000
		commits = 2400
	)
	s := core.NewSync(newSched(t))
	key := func(pid int64) relation.Tuple {
		return relation.NewTuple(relation.BindInt("ns", pid%4), relation.BindInt("pid", pid))
	}
	model := map[int64]relation.Tuple{}
	live := make([]int64, 0, procs)
	seed := make([]relation.Tuple, procs)
	for pid := int64(0); pid < procs; pid++ {
		seed[pid] = paperex.SchedulerTuple(pid%4, pid, pid/4%2, pid)
		model[pid] = seed[pid]
		live = append(live, pid)
	}
	if err := s.InsertBatch(seed); err != nil {
		t.Fatal(err)
	}
	serializeModel := func() string {
		rows := make([]relation.Tuple, 0, len(model))
		for _, tu := range model {
			rows = append(rows, tu)
		}
		return serializeAll(rows)
	}

	// The reader checks each version against itself: the two per-state
	// streams of one pinned version hold no process twice and together hold
	// Len() of them.
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for streams := 0; !done.Load() || streams == 0; streams++ {
			snap := s.Snapshot()
			seen := map[int64]bool{}
			for _, state := range []int64{paperex.StateS, paperex.StateR} {
				err := snap.QueryFunc(relation.NewTuple(relation.BindInt("state", state)), []string{"ns", "pid"}, func(tu relation.Tuple) bool {
					pid := tu.MustGet("pid").Int()
					if seen[pid] {
						t.Errorf("version %d streams pid %d twice", snap.Version(), pid)
					}
					seen[pid] = true
					return true
				})
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
			if len(seen) != snap.Len() {
				t.Errorf("version %d streams %d processes, Len %d", snap.Version(), len(seen), snap.Len())
				return
			}
		}
	}()

	type pin struct {
		snap *core.Relation
		want string
	}
	var pins []pin
	rng := rand.New(rand.NewSource(19))
	next := int64(procs)
	for i := 1; i <= commits; i++ {
		at := rng.Intn(len(live))
		pid := live[at]
		switch op := rng.Intn(8); {
		case op < 2: // spawn
			pid, next = next, next+1
			tu := paperex.SchedulerTuple(pid%4, pid, int64(rng.Intn(2)), 0)
			model[pid] = tu
			live = append(live, pid)
			if err := s.Insert(tu); err != nil {
				t.Fatalf("commit %d spawn: %v", i, err)
			}
		case op < 4: // exit
			delete(model, pid)
			live[at] = live[len(live)-1]
			live = live[:len(live)-1]
			if n, err := s.Remove(key(pid)); err != nil || n != 1 {
				t.Fatalf("commit %d exit: n=%d err=%v", i, n, err)
			}
		default: // set-state, charge
			u := relation.NewTuple(relation.BindInt("cpu", int64(i)))
			if op < 6 {
				u = relation.NewTuple(relation.BindInt("state", 1-model[pid].MustGet("state").Int()))
			}
			model[pid] = model[pid].Merge(u)
			if n, err := s.Update(key(pid), u); err != nil || n != 1 {
				t.Fatalf("commit %d update %v: n=%d err=%v", i, u, n, err)
			}
		}
		if i%100 == 0 {
			pins = append(pins, pin{snap: s.Snapshot(), want: serializeModel()})
		}
	}
	done.Store(true)
	wg.Wait()

	for i, p := range pins {
		res, err := p.snap.All()
		if err != nil {
			t.Fatal(err)
		}
		if got := serializeAll(res); got != p.want {
			t.Fatalf("pin %d (version %d) no longer reads back the state it was pinned at", i, p.snap.Version())
		}
		if err := p.snap.CheckInvariants(); err != nil {
			t.Fatalf("pin %d (version %d): %v", i, p.snap.Version(), err)
		}
	}
}

// TestShardedConcurrentDifferential: cross-shard queries are per-shard
// snapshot-consistent, not globally serialized, so the oracle here is
// per-key: each writer monotonically increases its keys' cpu values, and
// readers doing routed point reads must observe per-key non-decreasing
// cpu — a shard's versions publish in order under its writer mutex. A
// concurrent broadcast reader additionally asserts that every row it sees
// is a value some writer actually wrote (no torn tuples) while exercising
// the fan-out path under -race.
func TestShardedConcurrentDifferential(t *testing.T) {
	sr := mustNewSharded(schedSpec(), paperex.SchedulerDecomp(), core.ShardOptions{
		ShardKey: []string{"ns", "pid"},
		Shards:   4,
		Workers:  4,
	})
	m := &obs.Metrics{}
	sr.SetMetrics(m)

	const keys = 8
	const writesPerKey = 150
	const readers = 4

	// Seed every key at cpu 0.
	for k := int64(0); k < keys; k++ {
		if err := sr.Insert(paperex.SchedulerTuple(k%3, k, paperex.StateR, 0)); err != nil {
			t.Fatal(err)
		}
	}
	keyPat := func(k int64) relation.Tuple {
		return relation.NewTuple(relation.BindInt("ns", k%3), relation.BindInt("pid", k))
	}

	var done atomic.Bool
	var wg sync.WaitGroup

	// Point readers: per-key cpu must be non-decreasing.
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			last := make([]int64, keys)
			for !done.Load() {
				for k := int64(0); k < keys; k++ {
					res, err := sr.Query(keyPat(k), []string{"cpu"})
					if err != nil {
						t.Errorf("reader %d key %d: %v", rd, k, err)
						return
					}
					if len(res) != 1 {
						t.Errorf("reader %d key %d: %d rows, want 1", rd, k, len(res))
						return
					}
					cpu := res[0].MustGet("cpu").Int()
					if cpu < last[k] {
						t.Errorf("reader %d key %d: cpu went backwards %d -> %d", rd, k, last[k], cpu)
						return
					}
					last[k] = cpu
				}
			}
		}(rd)
	}

	// Broadcast reader: every observed row must carry a cpu in the range
	// some writer produced, and the fan-out must always see all keys (no
	// key ever vanishes — updates replace, never remove).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			res, err := sr.Query(relation.NewTuple(), schedAllCols)
			if err != nil {
				t.Errorf("broadcast reader: %v", err)
				return
			}
			if len(res) != keys {
				t.Errorf("broadcast reader: %d rows, want %d", len(res), keys)
				return
			}
			for _, tu := range res {
				if cpu := tu.MustGet("cpu").Int(); cpu < 0 || cpu > writesPerKey {
					t.Errorf("broadcast reader: impossible cpu %d", cpu)
					return
				}
			}
		}
	}()

	// Writers: one per key, bumping cpu by exactly 1 per write so the
	// per-key sequence is 0,1,2,...,writesPerKey.
	var wwg sync.WaitGroup
	for k := int64(0); k < keys; k++ {
		wwg.Add(1)
		go func(k int64) {
			defer wwg.Done()
			for i := int64(1); i <= writesPerKey; i++ {
				if n, err := sr.Update(keyPat(k), relation.NewTuple(relation.BindInt("cpu", i))); err != nil || n != 1 {
					t.Errorf("writer %d step %d: n=%d err=%v", k, i, n, err)
					return
				}
			}
		}(k)
	}
	wwg.Wait()
	done.Store(true)
	wg.Wait()

	// Final state: every key at writesPerKey; version turnover visible in
	// the snapshot counters (the counter contract for the MVCC tiers).
	for k := int64(0); k < keys; k++ {
		res, err := sr.Query(keyPat(k), []string{"cpu"})
		if err != nil || len(res) != 1 {
			t.Fatalf("final read key %d: %v (%d rows)", k, err, len(res))
		}
		if cpu := res[0].MustGet("cpu").Int(); cpu != writesPerKey {
			t.Fatalf("key %d final cpu %d, want %d", k, cpu, writesPerKey)
		}
	}
	snap := m.Snapshot()
	if want := uint64(keys + keys*writesPerKey); snap.SnapPublishes != want {
		t.Fatalf("SnapPublishes = %d, want %d (seeds + updates)", snap.SnapPublishes, want)
	}
	if snap.SnapDrops != 0 {
		t.Fatalf("SnapDrops = %d, want 0", snap.SnapDrops)
	}
	if snap.CowNodeClones < snap.SnapPublishes {
		t.Fatalf("CowNodeClones %d < SnapPublishes %d", snap.CowNodeClones, snap.SnapPublishes)
	}
	if err := sr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
