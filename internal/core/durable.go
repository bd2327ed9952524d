package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/wal"
)

// ErrClosed is returned by every operation on a DurableRelation that can
// report an error, after Close. Queries fail too (only Len still
// answers): a closed relation's logs no longer record
// writes, so continuing to serve reads would hide the missing durability
// from a caller holding the handle across the close.
var ErrClosed = errors.New("core: durable relation is closed")

// DurableRelation is the persistence tier: an MVCC engine (SyncRelation
// or ShardedRelation) with a wal.Log attached to each of its cells, so
// every mutation's logical delta — the full tuples removed and inserted —
// is write-ahead-logged before the new version is published. The ordering
// is enforced in the one place every write goes through (cell.commit): a
// version is published to readers only after its delta is on the log
// (and, under wal.SyncAlways, fsynced), and a delta whose append fails is
// never published — the fork is dropped exactly like a failed mutation on
// the MVCC tiers, the caller gets the append error, and a retry is safe
// because wal.Log.Append guarantees a failed record is not on disk.
//
// Logging is logical (tuples, not decomposition nodes), so the log is
// representation-independent: recovery replays deltas through the same
// copy-on-write cell path against a freshly synthesized instance, which
// means a log written under one decomposition can be recovered under
// another, and a fault during replay drops an unpublished fork instead of
// poisoning the relation being rebuilt.
//
// The sharded engine gets one log per shard, appended under that shard's
// writer mutex — per-shard group commit, no global ordering. Cross-shard
// operations (fan-out removes, batches) are atomic per shard, exactly as
// loud as the underlying tier documents, and recovery rebuilds each shard
// cell from its own snapshot+log pair.
//
// Every method below is the engine's own behind an ErrClosed check:
// queries run lock-free against published snapshots, same plans, same
// cache, same metrics.
type DurableRelation struct {
	eng    Engine // its cells carry the logs: cellAt(i).log is cell i's
	closed atomic.Bool
}

// NewDurable attaches one write-ahead log per cell to an MVCC engine — one
// log for a SyncRelation, len(logs) == NumShards for a ShardedRelation —
// and returns the durable handle to it. The engine's current published
// state must already be covered by the logs' snapshot/record history
// (freshly built engines with fresh logs trivially are; recovered ones are
// by construction in durable.Open). The logs belong to the cells, so a
// write through the engine itself is logged just the same; what only the
// returned handle provides is the lifecycle — Checkpoint, Sync, Close and
// the ErrClosed fence — so keep to the handle from here on.
func NewDurable(eng Engine, logs []*wal.Log) (*DurableRelation, error) {
	if len(logs) != eng.NumCells() {
		return nil, fmt.Errorf("core: durable relation needs one log per cell: %d logs for %d cells", len(logs), eng.NumCells())
	}
	for i, log := range logs {
		c := eng.cellAt(i)
		c.wmu.Lock()
		c.log = log
		c.wmu.Unlock()
	}
	return &DurableRelation{eng: eng}, nil
}

// A CommitSink observes every acknowledged delta of a DurableRelation,
// in the order the engine acknowledged it: the sink is invoked after the
// record is on the write-ahead log and the new version is published,
// while the mutating cell's writer mutex is still held — so per cell the
// sink sees deltas in exactly WAL order, and a delta it never sees was
// never acknowledged. The sink must not call back into the relation's
// mutation API (the cell mutex is held) and must be fast: it runs on the
// writer's critical path. The replication plane (internal/repl) is the
// intended consumer.
type CommitSink func(c wal.Commit)

// SetCommitSink installs (or with nil, removes) the acknowledged-delta
// tap. Installation holds every cell's writer mutex, so no writer is
// between its log append and its sink call while the tap changes hands:
// every delta acknowledged after SetCommitSink returns reaches the sink
// exactly once, and none acknowledged before it does. Pin names the state
// such a stream continues from. Installing a tap on a closed relation
// fails with ErrClosed; removing one always succeeds.
func (d *DurableRelation) SetCommitSink(sink CommitSink) error {
	if sink != nil && d.closed.Load() {
		return ErrClosed
	}
	d.fenced(func() {
		for i := range d.NumCells() {
			d.cellAt(i).sink = sink
		}
	})
	return nil
}

// Pin returns every cell's published version as of one instant of the
// acknowledged-delta stream, and runs at at that instant.
// It holds every cell's writer mutex while it loads the versions and calls
// at, and the sink runs under the mutating cell's mutex after the publish,
// so no writer is between its publish and its sink call: the returned
// versions hold exactly the deltas the sink had seen when at ran — no gap,
// no overlap. The cost is one lock and one pointer load per cell; no tuple
// is touched, and the versions are immutable, so the caller reads them
// lock-free for as long as it likes while writers carry on. at runs with
// the cell mutexes held: it must be brief and must not call back into the
// relation.
func (d *DurableRelation) Pin(at func()) ([]*Relation, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	versions := make([]*Relation, d.NumCells())
	d.fenced(func() {
		for i := range versions {
			versions[i] = d.cellAt(i).cur.Load()
		}
		at()
	})
	return versions, nil
}

// fenced runs f with every cell's writer mutex held, taken in index order:
// no write is in flight anywhere in the relation while f runs.
func (d *DurableRelation) fenced(f func()) {
	for i := range d.NumCells() {
		c := d.cellAt(i)
		c.wmu.Lock()
		defer c.wmu.Unlock()
	}
	f()
}

// Spec returns the relational specification.
func (d *DurableRelation) Spec() *Spec { return d.eng.Spec() }

// NumCells returns the number of independently logged cells: 1 for the
// sync tier, the shard count for the sharded tier.
func (d *DurableRelation) NumCells() int { return d.eng.NumCells() }

// Log exposes cell i's write-ahead log for tests and tooling.
func (d *DurableRelation) Log(i int) *wal.Log { return d.cellAt(i).log }

func (d *DurableRelation) cellAt(i int) *cell { return d.eng.cellAt(i) }

// Metrics returns the engine's metrics sink, or nil.
func (d *DurableRelation) Metrics() *obs.Metrics { return d.eng.Metrics() }

// SetMetrics attaches a metrics sink to the engine. The write-ahead logs
// keep counting into the sink they were opened with (wal.Config.Metrics);
// durable.Open hands both the same one.
func (d *DurableRelation) SetMetrics(m *obs.Metrics) { d.eng.SetMetrics(m) }

// SetTracer attaches a span-event tracer to the engine.
func (d *DurableRelation) SetTracer(t obs.Tracer) { d.eng.SetTracer(t) }

// Insert implements insert r t, durably: fork, mutate copy-on-write, log
// the delta, publish. A no-op insert (tuple already present) logs
// nothing.
func (d *DurableRelation) Insert(t relation.Tuple) error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.eng.Insert(t)
}

// InsertBatch inserts many tuples with one version fork and one log
// record per touched cell: N inserts cost one commit (and one fsync under
// SyncAlways) per cell instead of N. Only the tuples that actually
// changed the relation are logged. Per-cell atomicity matches the
// sharded tier: a failing cell drops its fork and logs nothing, without
// disturbing its peers.
func (d *DurableRelation) InsertBatch(ts []relation.Tuple) error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.eng.InsertBatch(ts)
}

// Remove implements remove r s, durably. Every removed tuple is logged in
// full. On the sharded tier a pattern binding the shard key removes (and
// logs) on one shard; any other pattern fans out and each shard logs its
// own removals on its own log.
func (d *DurableRelation) Remove(pat relation.Tuple) (int, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	return d.eng.Remove(pat)
}

// Update implements the keyed dupdate, durably: the delta logged is the
// full stored tuple replaced and the full merged tuple now stored.
func (d *DurableRelation) Update(pat, u relation.Tuple) (int, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	return d.eng.Update(pat, u)
}

// ApplyCommits replays the records src hands over, durably: each strict
// apply is logged like any other write. Unlike the unlogged engines it
// never shares a fork between records — every applied record is one log
// record and one published version, so the log never holds a record whose
// version a later failure in the same run dropped.
func (d *DurableRelation) ApplyCommits(src CommitSource) (int, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	return d.eng.ApplyCommits(src)
}

// ApplyCommit replays one logical delta, durably.
func (d *DurableRelation) ApplyCommit(c wal.Commit) error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.eng.ApplyCommit(c)
}

// Query implements query r s C against the engine's published snapshots,
// lock-free.
//
//relvet:role=read
func (d *DurableRelation) Query(pat relation.Tuple, out []string) ([]relation.Tuple, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	return d.eng.Query(pat, out)
}

// QueryFunc streams results from the engine, lock-free.
//
//relvet:role=read
func (d *DurableRelation) QueryFunc(pat relation.Tuple, out []string, f func(relation.Tuple) bool) error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.eng.QueryFunc(pat, out, f)
}

// QueryRange implements the order-based query against the engine.
//
//relvet:role=read
func (d *DurableRelation) QueryRange(pat relation.Tuple, col string, lo, hi *value.Value, out []string) ([]relation.Tuple, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	return d.eng.QueryRange(pat, col, lo, hi, out)
}

// Len returns the tuple count of the published state. It is the one
// operation that still answers after Close: it cannot report an error.
//
//relvet:role=read
func (d *DurableRelation) Len() int { return d.eng.Len() }

// All returns every tuple in deterministic order.
//
//relvet:role=read
func (d *DurableRelation) All() ([]relation.Tuple, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	return d.eng.All()
}

// CheckInvariants verifies the engine's published state.
func (d *DurableRelation) CheckInvariants() error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.eng.CheckInvariants()
}

// ExplainQuery reports the engine's explanation with the durable tag:
// the shape's plan, cache and routing provenance are unchanged by logging
// (queries never touch the log), but the tag records that writes to this
// relation are write-ahead logged.
//
//relvet:role=read
func (d *DurableRelation) ExplainQuery(input, output []string) (*QueryExplain, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	e, err := d.eng.ExplainQuery(input, output)
	if err != nil {
		return nil, err
	}
	e.Durable = true
	return e, nil
}

// Sync forces every cell's log to stable storage. Under wal.SyncInterval
// this is the caller's explicit commit barrier: when Sync returns nil,
// every previously acknowledged write is durable.
func (d *DurableRelation) Sync() error {
	if d.closed.Load() {
		return ErrClosed
	}
	var first error
	for i := range d.NumCells() {
		if err := d.Log(i).Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint serializes each cell's current published state to a
// snapshot file next to its log and truncates the log, bounding recovery
// replay. Per cell, under its writer mutex: snapshot covering every
// record up to the log's last sequence number is written atomically
// (tmp+fsync+rename), the log rotates to a fresh file starting after the
// covered prefix, and older snapshot files are garbage collected. A
// crash between the snapshot rename and the rotation is safe: replay
// skips log records the snapshot already covers, by sequence number.
//
// A failed snapshot write leaves the cell exactly as it was — old log
// intact, old snapshots intact — so Checkpoint is always safe to retry.
func (d *DurableRelation) Checkpoint() error {
	if d.closed.Load() {
		return ErrClosed
	}
	for i := range d.NumCells() {
		if err := d.cellAt(i).checkpoint(); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return nil
}

// checkpoint is Checkpoint for one cell: writers on this cell wait, the
// other cells proceed.
func (c *cell) checkpoint() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return ErrClosed
	}
	seq := c.log.LastSeq()
	r := c.cur.Load()
	tuples := r.inst.Relation().All()
	dir := filepath.Dir(c.log.Path())
	path := filepath.Join(dir, SnapshotName(seq))
	if _, err := wal.WriteSnapshot(path, seq, tuples, r.metrics); err != nil {
		return err
	}
	if err := c.log.Rotate(seq + 1); err != nil {
		return err
	}
	gcSnapshots(dir, seq)
	return nil
}

// ShardDirName is the per-shard cell directory name under a durable
// sharded relation's root directory.
func ShardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// SnapshotName is the file name of the checkpoint covering log records
// with sequence numbers ≤ seq. The fixed-width hex encoding makes
// lexicographic order equal sequence order.
func SnapshotName(seq uint64) string {
	return fmt.Sprintf("snap-%016x.snap", seq)
}

// ParseSnapshotName inverts SnapshotName.
func ParseSnapshotName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "snap-%016x.snap", &seq); err != nil {
		return 0, false
	}
	if name != SnapshotName(seq) {
		return 0, false
	}
	return seq, true
}

// gcSnapshots removes snapshot files older than the one covering keep,
// plus abandoned temporaries. Best-effort: a leftover file is wasted
// space, not a correctness problem — recovery picks the highest-numbered
// valid snapshot.
func gcSnapshots(dir string, keep uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := ParseSnapshotName(name); ok && seq < keep {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// Close flushes and closes every cell's log and marks the relation
// closed; every later operation returns ErrClosed. Acquiring each cell's
// writer mutex fences in-flight writers: once Close holds the mutex, no
// writer can be between its log append and its publish.
func (d *DurableRelation) Close() error {
	if d.closed.Swap(true) {
		return ErrClosed
	}
	var first error
	for i := range d.NumCells() {
		c := d.cellAt(i)
		c.wmu.Lock()
		c.closed = true
		if err := c.log.Close(); err != nil && first == nil {
			first = err
		}
		c.wmu.Unlock()
	}
	return first
}

// ReplayCell replays the records src hands over onto cell i of an engine,
// strictly, as one atomic version (see Engine.ApplyCommits): a SyncRelation
// is its own cell 0, a ShardedRelation has one cell per shard. Crash
// recovery rebuilds each cell from its own snapshot+log pair through it — a
// checkpoint is the delta {Inserted: tuples} — so the tuples must belong to
// cell i (they came from its own files, and CheckInvariants verifies routing
// after recovery).
func ReplayCell(e Engine, i int, src CommitSource) (int, error) {
	return e.cellAt(i).apply(src)
}

// ReplayShardCommit is ReplayCell for the one record c.
func ReplayShardCommit(e Engine, i int, c wal.Commit) error { return e.cellAt(i).applyOne(c) }

// ReplayShardedCommit is sr.ApplyCommit(c): the routed replay of a delta
// that is not pre-partitioned for sr's layout.
func ReplayShardedCommit(sr *ShardedRelation, c wal.Commit) error { return sr.ApplyCommit(c) }
