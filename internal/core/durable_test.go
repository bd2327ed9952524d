package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/wal"
)

// newDurableSync builds a fresh durable scheduler relation logging to
// dir/wal.log under the given fsync policy.
func newDurableSync(t *testing.T, dir string, policy wal.SyncPolicy) *core.DurableRelation {
	d, _ := newDurableSyncEngine(t, dir, policy)
	return d
}

// newDurableSyncEngine is newDurableSync returning also the engine the log
// was attached to.
func newDurableSyncEngine(t *testing.T, dir string, policy wal.SyncPolicy) (*core.DurableRelation, *core.SyncRelation) {
	t.Helper()
	log, err := wal.Create(filepath.Join(dir, "wal.log"), 1, wal.Config{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	r := core.MustNew(schedSpec(), paperex.SchedulerDecomp())
	r.CheckFDs = true
	s := core.NewSync(r)
	d, err := core.NewDurable(s, []*wal.Log{log})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, s
}

// newDurableSharded builds a fresh durable scheduler relation sharded on
// {ns, pid}, one log per shard under dir/shard-NNN/wal.log, and returns it
// with the engine the logs were attached to.
func newDurableSharded(t *testing.T, dir string, shards int, policy wal.SyncPolicy) (*core.DurableRelation, *core.ShardedRelation) {
	t.Helper()
	sr, err := core.NewSharded(schedSpec(), paperex.SchedulerDecomp(), core.ShardOptions{
		ShardKey: []string{"ns", "pid"},
		Shards:   shards,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]*wal.Log, shards)
	for i := range logs {
		sub := filepath.Join(dir, core.ShardDirName(i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if logs[i], err = wal.Create(filepath.Join(sub, "wal.log"), 1, wal.Config{Policy: policy}); err != nil {
			t.Fatal(err)
		}
	}
	core.SetCheckFDs(sr, true)
	d, err := core.NewDurable(sr, logs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, sr
}

// allTuples reads the full relation state in deterministic order.
func durAll(t *testing.T, d *core.DurableRelation) []relation.Tuple {
	t.Helper()
	res, err := d.All()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// recoverSync rebuilds a fresh sync relation from the snapshot (if any)
// and log in dir, through the COW replay path, and returns its state.
func recoverSync(t *testing.T, dir string) []relation.Tuple {
	t.Helper()
	r := core.MustNew(schedSpec(), paperex.SchedulerDecomp())
	r.CheckFDs = true
	s := core.NewSync(r)
	var snapSeq uint64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := ""
	for _, e := range entries {
		if seq, ok := core.ParseSnapshotName(e.Name()); ok && seq >= snapSeq {
			snap, snapSeq = e.Name(), seq
		}
	}
	if snap != "" {
		ts, seq, err := wal.ReadSnapshot(filepath.Join(dir, snap))
		if err != nil {
			t.Fatal(err)
		}
		snapSeq = seq
		if err := s.ApplyCommit(wal.Commit{Seq: seq, Inserted: ts}); err != nil {
			t.Fatal(err)
		}
	}
	scan, err := wal.ReadLog(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range scan.Commits {
		if c.Seq <= snapSeq {
			continue
		}
		if err := s.ApplyCommit(c); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Query(relation.NewTuple(), []string{"ns", "pid", "state", "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func eqStates(a, b []relation.Tuple) bool {
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

// TestDurableSyncLogsDeltas verifies the logged deltas are exactly the
// logical changes: full tuples, one commit per operation, no-ops absent.
func TestDurableSyncLogsDeltas(t *testing.T) {
	dir := t.TempDir()
	d := newDurableSync(t, dir, wal.SyncAlways)
	t1 := paperex.SchedulerTuple(1, 1, paperex.StateS, 7)
	t2 := paperex.SchedulerTuple(1, 2, paperex.StateR, 4)
	if err := d.Insert(t1); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(t2); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(t1); err != nil { // no-op: already present
		t.Fatal(err)
	}
	key := relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 1))
	if n, err := d.Update(key, relation.NewTuple(relation.BindInt("cpu", 9))); err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	if n, err := d.Remove(relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 2))); err != nil || n != 1 {
		t.Fatalf("remove: n=%d err=%v", n, err)
	}
	if n, err := d.Remove(relation.NewTuple(relation.BindInt("ns", 42))); err != nil || n != 0 { // no-op
		t.Fatalf("no-op remove: n=%d err=%v", n, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err := wal.ReadLog(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Commits) != 4 {
		t.Fatalf("logged %d commits, want 4 (no-ops must not log)", len(scan.Commits))
	}
	upd := scan.Commits[2]
	if len(upd.Removed) != 1 || len(upd.Inserted) != 1 {
		t.Fatalf("update delta: %+v", upd)
	}
	if !upd.Removed[0].Equal(t1) {
		t.Errorf("update removed %v, want the old stored tuple %v", upd.Removed[0], t1)
	}
	if !upd.Inserted[0].Equal(paperex.SchedulerTuple(1, 1, paperex.StateS, 9)) {
		t.Errorf("update inserted %v, want the merged tuple", upd.Inserted[0])
	}
	rem := scan.Commits[3]
	if len(rem.Removed) != 1 || !rem.Removed[0].Equal(t2) {
		t.Errorf("remove delta logs %+v, want the full removed tuple", rem)
	}
}

// TestDurableApplyCommitsLogsPerRecord: a logged cell never shares a fork
// between records. A batch that an unlogged engine would publish as one
// version is, through a DurableRelation, one log record and one version per
// applied record on both tiers — so when a later record of the batch does
// not replay, every record on the log is one whose version published, and
// recovery lands on exactly the prefix the applier reported.
func TestDurableApplyCommitsLogsPerRecord(t *testing.T) {
	t1 := paperex.SchedulerTuple(1, 1, paperex.StateS, 7)
	t2 := paperex.SchedulerTuple(1, 2, paperex.StateR, 4)
	batch := []wal.Commit{
		{Inserted: []relation.Tuple{t1}},
		{Inserted: []relation.Tuple{t2}},
		{Removed: []relation.Tuple{t1}, Inserted: []relation.Tuple{paperex.SchedulerTuple(1, 1, paperex.StateS, 9)}},
		{Inserted: []relation.Tuple{t2}}, // already stored: strict replay refuses it
		{Inserted: []relation.Tuple{paperex.SchedulerTuple(1, 3, paperex.StateR, 1)}},
	}
	source := func() core.CommitSource {
		next := 0
		return func() (wal.Commit, bool, error) {
			if next == len(batch) {
				return wal.Commit{}, false, nil
			}
			next++
			return batch[next-1], true, nil
		}
	}
	const applied = 3 // the records before the one that is refused
	dir := t.TempDir()
	sync := newDurableSync(t, dir, wal.SyncAlways)
	// One cell, so the whole batch is one run whichever tier applies it.
	sharded, _ := newDurableSharded(t, t.TempDir(), 1, wal.SyncOff)
	for _, e := range []struct {
		name string
		d    *core.DurableRelation
	}{
		{"sync", sync},
		{"sharded x1", sharded},
	} {
		t.Run(e.name, func(t *testing.T) {
			m := &obs.Metrics{}
			e.d.SetMetrics(m)
			n, err := e.d.ApplyCommits(source())
			if err == nil || !strings.Contains(err.Error(), "duplicate") {
				t.Fatalf("ApplyCommits over a duplicate insert = %v, want a strict-replay refusal", err)
			}
			if n != applied {
				t.Fatalf("ApplyCommits reported %d records published, want %d", n, applied)
			}
			if got := e.d.Log(0).LastSeq(); got != applied {
				t.Fatalf("log holds %d records, want %d: one per published record, none for the dropped fork", got, applied)
			}
			if s := m.Snapshot(); s.SnapPublishes != applied || s.SnapDrops != 1 {
				t.Fatalf("snap.publishes = %d, snap.drops = %d; want %d and 1", s.SnapPublishes, s.SnapDrops, applied)
			}
			if got := len(durAll(t, e.d)); got != 2 {
				t.Fatalf("published state holds %d tuples, want 2", got)
			}
		})
	}
	want := durAll(t, sync)
	if err := sync.Close(); err != nil {
		t.Fatal(err)
	}
	if got := recoverSync(t, dir); !eqStates(got, want) {
		t.Fatalf("recovered %v, want the published prefix %v", got, want)
	}
}

// TestDurableRecoveryRoundTrip replays a log into a fresh relation and
// compares abstractions with the state the writer last acknowledged.
func TestDurableRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := newDurableSync(t, dir, wal.SyncAlways)
	for i := int64(0); i < 40; i++ {
		if err := d.Insert(paperex.SchedulerTuple(i%4, i, i%2, i*3)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 40; i += 5 {
		key := relation.NewTuple(relation.BindInt("ns", i%4), relation.BindInt("pid", i))
		if _, err := d.Update(key, relation.NewTuple(relation.BindInt("cpu", i+100))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Remove(relation.NewTuple(relation.BindInt("ns", 3))); err != nil {
		t.Fatal(err)
	}
	want := durAll(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := recoverSync(t, dir); !eqStates(got, want) {
		t.Fatalf("recovered %d tuples != acknowledged %d", len(got), len(want))
	}
}

// TestDurableCheckpoint verifies checkpointing truncates the log, the
// snapshot+tail pair recovers the acknowledged state, and stale
// snapshots are collected.
func TestDurableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := newDurableSync(t, dir, wal.SyncAlways)
	for i := int64(0); i < 20; i++ {
		if err := d.Insert(paperex.SchedulerTuple(1, i, i%2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if sz := d.Log(0).Size(); sz != 16 {
		t.Fatalf("log not truncated by checkpoint: %d bytes", sz)
	}
	for i := int64(20); i < 30; i++ {
		if err := d.Insert(paperex.SchedulerTuple(1, i, i%2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tail records after the second checkpoint.
	if n, err := d.Remove(relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 3))); err != nil || n != 1 {
		t.Fatalf("remove: n=%d err=%v", n, err)
	}
	want := durAll(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	snaps := 0
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if _, ok := core.ParseSnapshotName(e.Name()); ok {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("found %d snapshots after GC, want 1", snaps)
	}
	if got := recoverSync(t, dir); !eqStates(got, want) {
		t.Fatalf("snapshot+tail recovery diverged: %d tuples, want %d", len(got), len(want))
	}
}

// TestDurableShardedLogsPerShard verifies the sharded durable tier logs
// each shard's deltas on its own log and the union replays to the
// acknowledged state.
func TestDurableShardedLogsPerShard(t *testing.T) {
	dir := t.TempDir()
	const shards = 4
	d, _ := newDurableSharded(t, dir, shards, wal.SyncAlways)
	var batch []relation.Tuple
	for i := int64(0); i < 32; i++ {
		batch = append(batch, paperex.SchedulerTuple(i%3, i, i%2, i))
	}
	if err := d.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	key := relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 1))
	if n, err := d.Update(key, relation.NewTuple(relation.BindInt("cpu", 77))); err != nil || n != 1 {
		t.Fatalf("routed update: n=%d err=%v", n, err)
	}
	// Fan-out remove: the pattern does not bind the shard key.
	if _, err := d.Remove(relation.NewTuple(relation.BindInt("state", 0))); err != nil {
		t.Fatal(err)
	}
	want := durAll(t, d)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay each shard's log into a fresh sharded engine.
	sr2 := mustNewSharded(schedSpec(), paperex.SchedulerDecomp(), core.ShardOptions{
		ShardKey: []string{"ns", "pid"},
		Shards:   shards,
		Workers:  1,
	})
	total := 0
	for i := 0; i < shards; i++ {
		scan, err := wal.ReadLog(filepath.Join(dir, core.ShardDirName(i), "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		total += len(scan.Commits)
		for _, c := range scan.Commits {
			if err := core.ReplayShardCommit(sr2, i, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if total == 0 {
		t.Fatal("no commits logged across shards")
	}
	got, err := sr2.All()
	if err != nil {
		t.Fatal(err)
	}
	if !eqStates(got, want) {
		t.Fatalf("sharded recovery diverged: %d tuples, want %d", len(got), len(want))
	}
	if err := sr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableClosed verifies every surface of both tiers reports
// ErrClosed after Close: the engine operations on the durable handle and
// on the engine handed to NewDurable alike (the fence is in the cells),
// and the lifecycle on the handle. A reflection pass holds the table to
// the handle's method set, so a new error-returning method cannot skip
// the fence unnoticed.
func TestDurableClosed(t *testing.T) {
	key := relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 1))
	tup := paperex.SchedulerTuple(1, 2, 0, 0)
	type op[T any] struct {
		method string // the method the op calls, for the reflection check
		name   string
		run    func(T) error
	}
	engineOps := []op[core.Engine]{
		{"Insert", "Insert", func(e core.Engine) error { return e.Insert(tup) }},
		{"InsertBatch", "InsertBatch", func(e core.Engine) error { return e.InsertBatch([]relation.Tuple{tup}) }},
		{"InsertBatch", "InsertBatch empty", func(e core.Engine) error { return e.InsertBatch(nil) }},
		{"Remove", "Remove", func(e core.Engine) error { _, err := e.Remove(key); return err }},
		{"Remove", "Remove fan-out", func(e core.Engine) error { _, err := e.Remove(relation.NewTuple()); return err }},
		{"Update", "Update", func(e core.Engine) error {
			_, err := e.Update(key, relation.NewTuple(relation.BindInt("cpu", 1)))
			return err
		}},
		{"ApplyCommit", "ApplyCommit", func(e core.Engine) error {
			return e.ApplyCommit(wal.Commit{Inserted: []relation.Tuple{tup}})
		}},
		{"ApplyCommits", "ApplyCommits", func(e core.Engine) error {
			done := false
			_, err := e.ApplyCommits(func() (wal.Commit, bool, error) {
				if done {
					return wal.Commit{}, false, nil
				}
				done = true
				return wal.Commit{Inserted: []relation.Tuple{tup}}, true, nil
			})
			return err
		}},
		{"ApplyCommits", "ApplyCommits empty", func(e core.Engine) error {
			_, err := e.ApplyCommits(func() (wal.Commit, bool, error) { return wal.Commit{}, false, nil })
			return err
		}},
		{"Query", "Query", func(e core.Engine) error {
			_, err := e.Query(relation.NewTuple(), []string{"ns"})
			return err
		}},
		{"Query", "Query routed", func(e core.Engine) error {
			_, err := e.Query(key, []string{"cpu"})
			return err
		}},
		{"QueryFunc", "QueryFunc", func(e core.Engine) error {
			return e.QueryFunc(relation.NewTuple(), []string{"ns"}, func(relation.Tuple) bool { return true })
		}},
		{"QueryRange", "QueryRange", func(e core.Engine) error {
			_, err := e.QueryRange(relation.NewTuple(), "cpu", nil, nil, []string{"ns"})
			return err
		}},
		{"All", "All", func(e core.Engine) error { _, err := e.All(); return err }},
		{"CheckInvariants", "CheckInvariants", func(e core.Engine) error { return e.CheckInvariants() }},
		{"ExplainQuery", "ExplainQuery", func(e core.Engine) error {
			_, err := e.ExplainQuery([]string{"ns", "pid"}, []string{"cpu"})
			return err
		}},
	}
	lifecycle := []op[*core.DurableRelation]{
		{"Close", "Close", func(d *core.DurableRelation) error { return d.Close() }},
		{"Checkpoint", "Checkpoint", func(d *core.DurableRelation) error { return d.Checkpoint() }},
		{"Sync", "Sync", func(d *core.DurableRelation) error { return d.Sync() }},
		{"Pin", "Pin", func(d *core.DurableRelation) error {
			_, err := d.Pin(func() { t.Error("Pin ran its callback on a closed relation") })
			return err
		}},
		{"SetCommitSink", "SetCommitSink", func(d *core.DurableRelation) error {
			return d.SetCommitSink(func(wal.Commit) {})
		}},
	}
	// exempt are the error-returning calls that must still succeed after
	// Close.
	exempt := []op[*core.DurableRelation]{
		{"SetCommitSink", "SetCommitSink(nil)", func(d *core.DurableRelation) error { return d.SetCommitSink(nil) }},
	}

	listed := map[string]bool{}
	for _, o := range engineOps {
		listed[o.method] = true
	}
	for _, o := range append(lifecycle, exempt...) {
		listed[o.method] = true
	}
	errType := reflect.TypeFor[error]()
	dt := reflect.TypeFor[*core.DurableRelation]()
	for i := range dt.NumMethod() {
		m := dt.Method(i)
		for j := range m.Type.NumOut() {
			if m.Type.Out(j) == errType && !listed[m.Name] {
				t.Errorf("DurableRelation.%s returns an error but is in neither the closed-ops table nor the exemptions", m.Name)
			}
		}
	}

	tiers := []struct {
		name string
		open func(t *testing.T) (*core.DurableRelation, core.Engine)
	}{
		{"1 cell", func(t *testing.T) (*core.DurableRelation, core.Engine) {
			return newDurableSyncEngine(t, t.TempDir(), wal.SyncOff)
		}},
		{"4 cells", func(t *testing.T) (*core.DurableRelation, core.Engine) {
			return newDurableSharded(t, t.TempDir(), 4, wal.SyncOff)
		}},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			d, eng := tier.open(t)
			if err := d.Insert(paperex.SchedulerTuple(1, 1, 0, 0)); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			for _, o := range engineOps {
				if err := o.run(d); !errors.Is(err, core.ErrClosed) {
					t.Errorf("%s after close: %v", o.name, err)
				}
				if err := o.run(eng); !errors.Is(err, core.ErrClosed) {
					t.Errorf("%s through the wrapped engine after close: %v", o.name, err)
				}
			}
			for _, o := range lifecycle {
				if err := o.run(d); !errors.Is(err, core.ErrClosed) {
					t.Errorf("%s after close: %v", o.name, err)
				}
			}
			for _, o := range exempt {
				if err := o.run(d); err != nil {
					t.Errorf("%s after close: %v", o.name, err)
				}
			}
			if got := eng.Len(); got != 1 {
				t.Errorf("Len after close = %d, want 1", got)
			}
		})
	}
}

// TestDurableAppendErrorDropsFork verifies the WAL ordering invariant's
// failure half: an append error means the mutation is not published and
// not on disk, and the caller can simply retry.
func TestDurableAppendErrorDropsFork(t *testing.T) {
	p := faultinject.NewPlane()
	faultinject.Install(p)
	defer faultinject.Uninstall()

	type subject struct {
		dir    string
		d      *core.DurableRelation
		before []relation.Tuple
	}
	insert := func(s subject) error { return s.d.Insert(paperex.SchedulerTuple(1, 3, 1, 6)) }
	// Only the WAL's own steps are armed; the steps before them belong to
	// the data structures the mutation touches.
	faultinject.Sweep(t, p, faultinject.Regime[subject]{
		Fresh: func() subject {
			dir := t.TempDir()
			d := newDurableSync(t, dir, wal.SyncAlways)
			if err := d.Insert(paperex.SchedulerTuple(1, 1, 0, 5)); err != nil {
				t.Fatal(err)
			}
			return subject{dir, d, durAll(t, d)}
		},
		Action: insert,
		Modes:  []faultinject.Mode{faultinject.Error},
		Sites:  "wal.",
		Contract: func(s subject, a faultinject.Attempt) {
			if a.Err == nil {
				t.Fatal("append fault not surfaced")
			}
			if got := durAll(t, s.d); !eqStates(got, s.before) {
				t.Fatalf("failed append published state: %v", got)
			}
			// Retry is safe: the failed record is guaranteed absent from the log.
			if err := insert(s); err != nil {
				t.Fatal(err)
			}
			want := durAll(t, s.d)
			if err := s.d.Close(); err != nil {
				t.Fatal(err)
			}
			if got := recoverSync(t, s.dir); !eqStates(got, want) {
				t.Fatalf("recovery after retried append diverged")
			}
		},
	})
}

// TestDurableRefusesUnloggableWrites verifies the commit path's guard: the
// write body that runs caller code on the fork (Upsert) has no delta to
// log, so on a logged cell it drops its fork instead of publishing state
// the log does not contain.
func TestDurableRefusesUnloggableWrites(t *testing.T) {
	d, sr := newDurableSharded(t, t.TempDir(), 4, wal.SyncOff)
	if err := d.Insert(paperex.SchedulerTuple(1, 1, 0, 5)); err != nil {
		t.Fatal(err)
	}
	before := durAll(t, d)
	key := relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 1))
	bump := relation.NewTuple(relation.BindInt("cpu", 6))
	if err := sr.Upsert(key, func(relation.Tuple, bool) (relation.Tuple, error) { return bump, nil }); err == nil {
		t.Error("Upsert published an unlogged version on a durable engine")
	}
	if got := durAll(t, d); !eqStates(got, before) {
		t.Fatalf("refused writes changed the published state: %v", got)
	}
	// The same update through the logged body is fine.
	if n, err := sr.Update(key, bump); err != nil || n != 1 {
		t.Fatalf("logged update: n=%d err=%v", n, err)
	}
	if got := d.Log(0).Size() + d.Log(1).Size() + d.Log(2).Size() + d.Log(3).Size(); got <= 4*16 {
		t.Fatalf("no record reached the logs (%d bytes)", got)
	}
}

// TestDurableExplainTag verifies EXPLAIN carries the durable tag through
// the wrapped tier's provenance.
func TestDurableExplainTag(t *testing.T) {
	d := newDurableSync(t, t.TempDir(), wal.SyncOff)
	e, err := d.ExplainQuery([]string{"ns", "pid"}, []string{"cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Durable {
		t.Fatal("explain lost the durable flag")
	}
	if s := e.String(); !strings.Contains(s, "durable") {
		t.Fatalf("rendered explain lacks durable tag:\n%s", s)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
