package durable_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/systems/ipcap"
	"repro/internal/wal"
)

func schedSpec() *core.Spec {
	return &core.Spec{
		Name: "processes",
		Columns: []core.ColDef{
			{Name: "ns", Type: core.IntCol},
			{Name: "pid", Type: core.IntCol},
			{Name: "state", Type: core.IntCol},
			{Name: "cpu", Type: core.IntCol},
		},
		FDs: paperex.SchedulerFDs(),
	}
}

func open(t *testing.T, dir string, opts durable.Options) *core.DurableRelation {
	t.Helper()
	d, err := durable.Open(dir, schedSpec(), paperex.SchedulerDecomp(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func state(t *testing.T, d *core.DurableRelation) []relation.Tuple {
	t.Helper()
	res, err := d.All()
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

func seed(t *testing.T, d *core.DurableRelation, n int64) {
	t.Helper()
	for i := int64(0); i < n; i++ {
		if err := d.Insert(paperex.SchedulerTuple(i%4, i, i%2, i*2)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenCreateReopen covers the basic durability contract: everything
// acknowledged before Close is present after reopen, across all three
// fsync policies (Close flushes, so even SyncOff survives an orderly
// shutdown).
func TestOpenCreateReopen(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := durable.Options{Create: true, Policy: policy, CheckFDs: true}
			d := open(t, dir, opts)
			seed(t, d, 30)
			key := relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 5))
			if _, err := d.Update(key, relation.NewTuple(relation.BindInt("cpu", 99))); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Remove(relation.NewTuple(relation.BindInt("ns", 2), relation.BindInt("pid", 6))); err != nil {
				t.Fatal(err)
			}
			want := state(t, d)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			opts.Create = false
			d2 := open(t, dir, opts)
			defer d2.Close()
			if got := state(t, d2); !eqStates(got, want) {
				t.Fatalf("reopened state has %d tuples, want %d", len(got), len(want))
			}
			if err := d2.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpenRefusesUnknownDirectory: no manifest and no Create flag is an
// error, not an empty database.
func TestOpenRefusesUnknownDirectory(t *testing.T) {
	_, err := durable.Open(t.TempDir(), schedSpec(), paperex.SchedulerDecomp(), durable.Options{})
	if !errors.Is(err, durable.ErrNoRelation) {
		t.Fatalf("got %v, want ErrNoRelation", err)
	}
}

// TestManifestGuardsIdentity: reopening under a different name, schema,
// or shard layout must fail before any replay happens.
func TestManifestGuardsIdentity(t *testing.T) {
	dir := t.TempDir()
	d := open(t, dir, durable.Options{Create: true})
	seed(t, d, 4)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	renamed := schedSpec()
	renamed.Name = "threads"
	if _, err := durable.Open(dir, renamed, paperex.SchedulerDecomp(), durable.Options{}); err == nil || !strings.Contains(err.Error(), "holds relation") {
		t.Errorf("renamed spec: %v", err)
	}
	wider := schedSpec()
	wider.Columns = append(wider.Columns, core.ColDef{Name: "prio", Type: core.IntCol})
	if _, err := durable.Open(dir, wider, paperex.SchedulerDecomp(), durable.Options{}); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Errorf("widened spec: %v", err)
	}
	if _, err := durable.Open(dir, schedSpec(), paperex.SchedulerDecomp(), durable.Options{Shards: 4, ShardKey: []string{"ns", "pid"}}); err == nil || !strings.Contains(err.Error(), "tier") {
		t.Errorf("tier switch: %v", err)
	}
}

// TestTornTailDiscardedOnRecovery simulates a crash mid-append: trailing
// garbage after the last acknowledged record is discarded and counted,
// and the recovered state is exactly the acknowledged prefix.
func TestTornTailDiscardedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	d := open(t, dir, durable.Options{Create: true})
	seed(t, d, 10)
	want := state(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn frame header: fewer bytes than a header needs.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	met := &obs.Metrics{}
	d2 := open(t, dir, durable.Options{Metrics: met})
	defer d2.Close()
	if got := state(t, d2); !eqStates(got, want) {
		t.Fatalf("recovered %d tuples, want %d", len(got), len(want))
	}
	snap := met.Snapshot()
	if snap.RecoveryDiscards != 1 {
		t.Errorf("recovery.discards = %d, want 1", snap.RecoveryDiscards)
	}
	if snap.RecoveryReplays != 10 {
		t.Errorf("recovery.replays = %d, want 10", snap.RecoveryReplays)
	}
}

// TestMidLogCorruptionFailsOpen: damage before the tail is not a torn
// write and must fail recovery loudly.
func TestMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	d := open(t, dir, durable.Options{Create: true})
	seed(t, d, 10)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.Open(dir, schedSpec(), paperex.SchedulerDecomp(), durable.Options{}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestMidLogCorruptionBehindValidPrefix: recovery streams the log into
// the replay, so damage in record k+1 is found after records 1..k were
// applied to the unpublished fork. Open must still fail with ErrCorrupt
// and leave every byte of the directory as it was; once the log is cut
// back at the damage, a retry recovers exactly the acknowledged prefix.
func TestMidLogCorruptionBehindValidPrefix(t *testing.T) {
	const n, k = 10, 6
	dir := t.TempDir()
	d := open(t, dir, durable.Options{Create: true})
	var states [][]relation.Tuple
	for i := int64(0); i < n; i++ {
		if err := d.Insert(paperex.SchedulerTuple(i%4, i, i%2, i*2)); err != nil {
			t.Fatal(err)
		}
		states = append(states, state(t, d))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Frames follow the 16-byte header as [len uint32][crc uint32][payload].
	off := 16
	for range k {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
	}
	data[off+8+1] ^= 0xff // inside record k+1's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	if _, err := durable.Open(dir, schedSpec(), paperex.SchedulerDecomp(), durable.Options{}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if after := dirBytes(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
		t.Fatal("a failed recovery changed the directory")
	}

	if err := os.Truncate(path, int64(off)); err != nil {
		t.Fatal(err)
	}
	met := &obs.Metrics{}
	d2 := open(t, dir, durable.Options{Metrics: met})
	defer d2.Close()
	if got := state(t, d2); !eqStates(got, states[k-1]) {
		t.Fatalf("recovered %d tuples, want the %d of the first %d records", len(got), len(states[k-1]), k)
	}
	if snap := met.Snapshot(); snap.RecoveryReplays != k || snap.RecoveryDiscards != 0 {
		t.Fatalf("recovery.replays = %d, recovery.discards = %d, want %d and 0", snap.RecoveryReplays, snap.RecoveryDiscards, k)
	}
}

// dirBytes reads every file under dir, by path relative to it.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(p string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		files[strings.TrimPrefix(p, dir)] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCheckpointBoundsReplay: after a checkpoint, recovery replays only
// the records the snapshot does not cover.
func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	d := open(t, dir, durable.Options{Create: true})
	seed(t, d, 50)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := int64(50); i < 57; i++ {
		if err := d.Insert(paperex.SchedulerTuple(i%4, i, i%2, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := state(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	met := &obs.Metrics{}
	d2 := open(t, dir, durable.Options{Metrics: met})
	defer d2.Close()
	if got := state(t, d2); !eqStates(got, want) {
		t.Fatalf("recovered %d tuples, want %d", len(got), len(want))
	}
	if n := met.Snapshot().RecoveryReplays; n != 7 {
		t.Errorf("recovery.replays = %d, want 7 (snapshot covers the first 50)", n)
	}
}

// TestShardedReopen: the sharded tier recovers each shard cell from its
// own log and the union passes the cross-shard invariant check.
func TestShardedReopen(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{
		Create:   true,
		Shards:   4,
		ShardKey: []string{"ns", "pid"},
		Workers:  2,
		CheckFDs: true,
	}
	d := open(t, dir, opts)
	var batch []relation.Tuple
	for i := int64(0); i < 60; i++ {
		batch = append(batch, paperex.SchedulerTuple(i%5, i, i%2, i))
	}
	if err := d.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Remove(relation.NewTuple(relation.BindInt("state", 1))); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	key := relation.NewTuple(relation.BindInt("ns", 0), relation.BindInt("pid", 10))
	if _, err := d.Update(key, relation.NewTuple(relation.BindInt("cpu", 1234))); err != nil {
		t.Fatal(err)
	}
	want := state(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	opts.Create = false
	d2 := open(t, dir, opts)
	defer d2.Close()
	if got := state(t, d2); !eqStates(got, want) {
		t.Fatalf("recovered %d tuples, want %d", len(got), len(want))
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// wantOneVersionPerCell fails t unless every cell of a freshly recovered d
// that holds anything sits at version 1: its snapshot and its whole log tail
// were replayed on one fork and published once. The version stamp, not a
// counter, because Open attaches Options.Metrics only after the replay.
func wantOneVersionPerCell(t *testing.T, d *core.DurableRelation) {
	t.Helper()
	versions, err := d.Pin(func() {})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range versions {
		// A cell with nothing on disk publishes nothing and stays at 0.
		if got := v.Version(); got > 1 || (got == 0 && v.Len() > 0) {
			t.Fatalf("cell %d recovered %d tuples at version %d, want version 1: one fork per cell", i, v.Len(), got)
		}
	}
}

// TestRecoveryIsOneVersionPerCell: Open replays a cell's checkpoint and log
// tail as one batch, so the cell is at version 1 whether the log held n
// records or 4n, with a checkpoint under them or not, on one cell or four.
func TestRecoveryIsOneVersionPerCell(t *testing.T) {
	const n = 12
	for _, tc := range []struct {
		name       string
		records    int64
		checkpoint bool
		shards     int
	}{
		{"n", n, false, 0},
		{"4n", 4 * n, false, 0},
		{"n after checkpoint", n, true, 0},
		{"4n after checkpoint", 4 * n, true, 0},
		{"4n sharded", 4 * n, false, 4},
		{"4n sharded after checkpoint", 4 * n, true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := durable.Options{Create: true, CheckFDs: true}
			if tc.shards > 0 {
				opts.Shards, opts.ShardKey = tc.shards, []string{"ns", "pid"}
			}
			d := open(t, dir, opts)
			if tc.checkpoint {
				seed(t, d, n)
				if err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			// The tail: tc.records records of every kind the log carries.
			for i := int64(100); i < 100+tc.records; i += 3 {
				if err := d.Insert(paperex.SchedulerTuple(i%4, i, i%2, i)); err != nil {
					t.Fatal(err)
				}
				key := relation.NewTuple(relation.BindInt("ns", i%4), relation.BindInt("pid", i))
				if _, err := d.Update(key, relation.NewTuple(relation.BindInt("cpu", i+1))); err != nil {
					t.Fatal(err)
				}
				if i%2 == 0 {
					if _, err := d.Remove(key); err != nil {
						t.Fatal(err)
					}
				} else if err := d.Insert(paperex.SchedulerTuple(i%4, i+1, i%2, i)); err != nil {
					t.Fatal(err)
				}
			}
			want := state(t, d)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			opts.Create = false
			met := &obs.Metrics{}
			opts.Metrics = met
			d2 := open(t, dir, opts)
			defer d2.Close()
			if got := state(t, d2); !eqStates(got, want) {
				t.Fatalf("recovered %d tuples, want %d", len(got), len(want))
			}
			if got := met.Snapshot().RecoveryReplays; got != uint64(tc.records) {
				t.Fatalf("recovery.replays = %d, want the %d tail records", got, tc.records)
			}
			wantOneVersionPerCell(t, d2)
		})
	}
}

// TestRecoveryFaultLeavesNoTornState is the regression test for replay
// routing through the COW publish path: a fault injected during replay
// must fail Open loudly (error) or abort it (panic) without leaving any
// partially-applied or poisoned state, and a plain retry must succeed
// with the full acknowledged state.
func TestRecoveryFaultLeavesNoTornState(t *testing.T) {
	dir := t.TempDir()
	d := open(t, dir, durable.Options{Create: true, CheckFDs: true})
	seed(t, d, 12)
	want := state(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	p := faultinject.NewPlane()
	faultinject.Install(p)
	defer faultinject.Uninstall()

	// The subject is the attempt's own Open of the one prepared directory.
	type recovery struct{ got *core.DurableRelation }
	faultinject.Sweep(t, p, faultinject.Regime[*recovery]{
		Fresh: func() *recovery { return new(recovery) },
		Action: func(r *recovery) (err error) {
			r.got, err = durable.Open(dir, schedSpec(), paperex.SchedulerDecomp(), durable.Options{CheckFDs: true})
			return err
		},
		Require: []string{"recovery.apply"},
		Traced: func(r *recovery, pts []faultinject.PointInfo) {
			// The kill-points above sat inside one batch: every record had
			// its own, and all of them were replayed on one fork.
			applies := 0
			for _, pt := range pts {
				if pt.Site == "recovery.apply" {
					applies++
				}
			}
			if applies != 12 {
				t.Fatalf("clean recovery crossed %d recovery.apply points, want one per record (12)", applies)
			}
			wantOneVersionPerCell(t, r.got)
			r.got.Close()
		},
		Contract: func(r *recovery, a faultinject.Attempt) {
			if a.Err == nil {
				r.got.Close()
				t.Fatalf("step %d/%v: injected fault not surfaced by Open", a.Step, a.Mode)
			}
			if r.got != nil {
				t.Fatalf("step %d/%v: failed Open returned a non-nil relation", a.Step, a.Mode)
			}
			// Panics inside the engine's own mutation machinery are
			// contained to errors; one at a recovery.apply step itself must
			// propagate — recovery may not trap it into torn state.
			if a.Mode == faultinject.Panic && a.Point.Site == "recovery.apply" && !a.Panicked {
				t.Fatalf("step %d: armed panic did not propagate out of Open", a.Step)
			}
			// A later clean Open still recovers everything.
			d2 := open(t, dir, durable.Options{CheckFDs: true})
			defer d2.Close()
			if got := state(t, d2); !eqStates(got, want) {
				t.Fatalf("step %d/%v: post-fault recovery diverged: %d tuples, want %d", a.Step, a.Mode, len(got), len(want))
			}
			if err := d2.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		},
	})
}

// TestWalCounters pins the observability contract of the write path:
// wal.appends counts acknowledged records, wal.fsyncs the forced syncs,
// ckpt.writes the completed checkpoints.
func TestWalCounters(t *testing.T) {
	dir := t.TempDir()
	met := &obs.Metrics{}
	d := open(t, dir, durable.Options{Create: true, Metrics: met})
	seed(t, d, 5)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	if snap.WalAppends != 5 {
		t.Errorf("wal.appends = %d, want 5", snap.WalAppends)
	}
	if snap.WalFsyncs < 5 {
		t.Errorf("wal.fsyncs = %d, want >= 5 under SyncAlways", snap.WalFsyncs)
	}
	if snap.WalBytes == 0 {
		t.Error("wal.bytes = 0")
	}
	if snap.CkptWrites != 1 {
		t.Errorf("ckpt.writes = %d, want 1", snap.CkptWrites)
	}
	if snap.CkptBytes == 0 {
		t.Error("ckpt.bytes = 0")
	}
	if s := snap.String(); !strings.Contains(s, "wal.appends") {
		t.Errorf("metrics rendering lacks wal.appends:\n%s", s)
	}
}

// TestCheckpointLargeTable: a checkpoint serializes α of the published
// state, so it is only as usable as α is cheap. 50k flows in one cell —
// the shape whose α used to copy the accumulated relation once per host —
// must checkpoint, and recover from the checkpoint alone, in test time.
func TestCheckpointLargeTable(t *testing.T) {
	const hosts, perHost = 250, 200
	dir := t.TempDir()
	opts := durable.Options{Create: true, Policy: wal.SyncOff}
	d, err := durable.Open(dir, ipcap.FlowSpec(), ipcap.DefaultFlowDecomp(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]relation.Tuple, 0, hosts*perHost)
	for local := int64(0); local < hosts; local++ {
		for foreign := int64(0); foreign < perHost; foreign++ {
			ts = append(ts, relation.NewTuple(
				relation.BindInt("local", local), relation.BindInt("foreign", foreign),
				relation.BindInt("packets", local), relation.BindInt("bytes", foreign)))
		}
	}
	if err := d.InsertBatch(ts); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	t.Logf("checkpoint of %d flows took %v", len(ts), time.Since(start))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	m := &obs.Metrics{}
	d, err = durable.Open(dir, ipcap.FlowSpec(), ipcap.DefaultFlowDecomp(), durable.Options{Policy: wal.SyncOff, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Len(); got != len(ts) {
		t.Fatalf("recovered %d flows, want %d", got, len(ts))
	}
	if got := m.Snapshot().RecoveryReplays; got != 0 {
		t.Fatalf("recovery replayed %d log records after a checkpoint of everything", got)
	}
	got, err := d.Query(ts[len(ts)-1].Project(relation.NewCols("local", "foreign")), []string{"packets", "bytes"})
	if err != nil || len(got) != 1 || !got[0].Equal(ts[len(ts)-1].Project(relation.NewCols("bytes", "packets"))) {
		t.Fatalf("last flow after recovery = %v, %v", got, err)
	}
}

// TestReopenDirectoryWrittenBeforeWordStorage reopens a directory the commit
// before the word representation wrote (testdata/written-by-f0c2296: 40
// inserts, a checkpoint, 20 more inserts, 10 retags and 5 removes, over a
// relation with string columns and integers too wide for an inline code).
// The WAL, snapshot and manifest formats carry boxed values and did not
// change, so the recovered state is the history's, and the reopened engine
// keeps logging into the same directory.
func TestReopenDirectoryWrittenBeforeWordStorage(t *testing.T) {
	spec := &core.Spec{
		Name: "tagged",
		Columns: []core.ColDef{
			{Name: "grp", Type: core.IntCol},
			{Name: "name", Type: core.StringCol},
			{Name: "tag", Type: core.StringCol},
			{Name: "n", Type: core.IntCol},
		},
		FDs: fd.NewSet(fd.FD{From: relation.NewCols("name"), To: relation.NewCols("grp", "tag", "n")}),
	}
	dcmp := decomp.MustNew([]decomp.Binding{
		decomp.Let("leaf", []string{"grp", "name"}, []string{"tag", "n"}, decomp.U("tag", "n")),
		decomp.Let("b", []string{"grp"}, []string{"name", "tag", "n"}, decomp.M(dstruct.AVLKind, "leaf", "name")),
		decomp.Let("root", nil, []string{"grp", "name", "tag", "n"}, decomp.M(dstruct.HTableKind, "b", "grp")),
	}, "root")
	dir := t.TempDir()
	files, err := os.ReadDir("testdata/written-by-f0c2296")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join("testdata/written-by-f0c2296", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	name := func(i int) relation.Tuple {
		return relation.NewTuple(relation.BindString("name", fmt.Sprintf("name-%03d", i)))
	}
	want := relation.Empty(spec.Cols())
	for i := 0; i < 60; i++ {
		grp := int64(i % 5)
		if i%7 == 0 {
			grp = 1<<62 + int64(i)
		}
		_ = want.Insert(name(i).Merge(relation.NewTuple(relation.BindInt("grp", grp),
			relation.BindString("tag", fmt.Sprintf("tag-%d", i%4)), relation.BindInt("n", int64(i)))))
	}
	for i := 0; i < 60; i += 6 {
		want.Update(name(i), relation.NewTuple(relation.BindString("tag", "retagged")))
	}
	for i := 5; i < 60; i += 11 {
		want.Remove(name(i))
	}
	for round := 0; round < 2; round++ {
		d, err := durable.Open(dir, spec, dcmp, durable.Options{Policy: wal.SyncAlways})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := state(t, d); !eqStates(got, want.All()) {
			t.Fatalf("round %d: recovered %d tuples, the history holds %d:\n got %v\nwant %v", round, len(got), want.Len(), got, want.All())
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Keep writing: the next round recovers the old log plus this.
		extra := name(100 + round).Merge(relation.NewTuple(relation.BindInt("grp", math.MinInt64),
			relation.BindString("tag", "appended"), relation.BindInt("n", int64(round))))
		if err := d.Insert(extra); err != nil {
			t.Fatal(err)
		}
		_ = want.Insert(extra)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkOpenReplay times recovery end to end: one durable.Open of a
// directory whose log holds 30k flows commits — inserts, counter updates
// and removes — and no checkpoint, so every record is decoded and replayed.
// Run with -benchmem: the bytes and objects per Open are the decode and
// replay path's own.
func BenchmarkOpenReplay(b *testing.B) {
	const commits = 30000
	dir := b.TempDir()
	spec, dcmp := ipcap.FlowSpec(), ipcap.DefaultFlowDecomp()
	d, err := durable.Open(dir, spec, dcmp, durable.Options{Create: true, Policy: wal.SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	flow := func(i int64) relation.Tuple {
		return relation.NewTuple(relation.BindInt("local", i%200), relation.BindInt("foreign", i))
	}
	stats := func(packets int64) relation.Tuple {
		return relation.NewTuple(relation.BindInt("packets", packets), relation.BindInt("bytes", 64*packets))
	}
	// Every insert is a new flow; an update or remove of a flow already
	// removed changes nothing and logs nothing, so count the records.
	next := int64(0)
	for i, logged := int64(0), 0; logged < commits; i++ {
		n := 1
		switch {
		case i%10 < 7 || next < 10:
			err = d.Insert(flow(next).Merge(stats(1)))
			next++
		case i%10 < 9:
			n, err = d.Update(flow(next-1-i%next), stats(i))
		default:
			n, err = d.Remove(flow(next - 1 - (i*7)%next))
		}
		if err != nil {
			b.Fatal(err)
		}
		logged += n
	}
	want := d.Len()
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		d, err := durable.Open(dir, spec, dcmp, durable.Options{Policy: wal.SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		if d.Len() != want {
			b.Fatalf("recovered %d flows, want %d", d.Len(), want)
		}
		b.StopTimer()
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(commits)*float64(b.N)/b.Elapsed().Seconds(), "replays/s")
}

// BenchmarkDurableCommit times the commit path of a logged cell: one counter
// update of an existing flow per iteration — validate, copy-on-write fork,
// WAL encode and append, publish — on a one-cell flows directory under
// SyncInterval, whose fsyncs run on the group-commit goroutine, off the
// writer's path. Run with -benchmem: B/op and allocs/op are one commit's.
func BenchmarkDurableCommit(b *testing.B) {
	const flows = 1000
	dir := b.TempDir()
	d, err := durable.Open(dir, ipcap.FlowSpec(), ipcap.DefaultFlowDecomp(), durable.Options{Create: true, Policy: wal.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	flow := func(i int64) relation.Tuple {
		return relation.NewTuple(relation.BindInt("local", i%50), relation.BindInt("foreign", i))
	}
	stats := func(packets int64) relation.Tuple {
		return relation.NewTuple(relation.BindInt("packets", packets), relation.BindInt("bytes", 64*packets))
	}
	for i := range int64(flows) {
		if err := d.Insert(flow(i).Merge(stats(1))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range int64(b.N) {
		// Packet counts only grow, so every update changes its flow and logs.
		if n, err := d.Update(flow(i%flows), stats(i+2)); err != nil || n != 1 {
			b.Fatalf("update %d: %d, %v", i, n, err)
		}
	}
}
