package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/decomp"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/wal"
)

// cell is the engine's one MVCC unit and owns its only write path. The
// current state is an immutable *Relation version published through an
// atomic pointer: readers load it and never touch the mutex; writers
// serialize on wmu, fork the next version copy-on-write (beginVersion —
// only the nodes a mutation touches are cloned), and finish through
// commit, which publishes the fork on success and drops it on failure. A
// dropped fork leaves the published version bit-for-bit intact, so there
// is no rollback to run and nothing to poison; superseded versions are
// reclaimed by the garbage collector once the last reader lets go.
//
// Every tier is built from cells: a SyncRelation is one, a
// ShardedRelation is a router over many, and a DurableRelation is either
// with a write-ahead log attached to each cell. Live mutations, crash
// recovery and follower apply all run the bodies below, so the atomicity
// and WAL-ordering arguments are made once, in commit.
//
// The padding keeps neighbouring shards' write-path state off one cache
// line.
type cell struct {
	wmu sync.Mutex               // serializes writers; readers never touch it
	cur atomic.Pointer[Relation] // the published immutable version

	// Durability is a property of the cell, off while log is nil. All three
	// fields are guarded by wmu.
	log    *wal.Log   // deltas are appended here before their version publishes
	sink   CommitSink // acknowledged-delta tap (see SetCommitSink)
	closed bool       // Close ran: the log takes no more records

	_ [24]byte
}

// Engine is the one relational interface every concurrent tier presents —
// SyncRelation, ShardedRelation, and DurableRelation over either — and
// the only thing the layers above (DurableRelation, durable.Open,
// repl.Follower) know about the engine underneath them: the paper's
// insert/remove/update/query operations plus the observability hooks and
// the replay entry point. All implementations are cells underneath, which
// is what the unexported method pins.
type Engine interface {
	Spec() *Spec

	Insert(t relation.Tuple) error
	InsertBatch(ts []relation.Tuple) error
	Remove(pat relation.Tuple) (int, error)
	Update(pat, u relation.Tuple) (int, error)

	Query(pat relation.Tuple, out []string) ([]relation.Tuple, error)
	QueryFunc(pat relation.Tuple, out []string, f func(relation.Tuple) bool) error
	QueryRange(pat relation.Tuple, col string, lo, hi *value.Value, out []string) ([]relation.Tuple, error)
	Len() int
	All() ([]relation.Tuple, error)

	CheckInvariants() error
	ExplainQuery(input, output []string) (*QueryExplain, error)

	// SetMetrics and SetTracer attach the observability sinks. Like the
	// other configuration knobs, attach before the engine is shared; version
	// forks inherit the sinks. The tracer receives events from concurrent
	// readers and must be safe for concurrent use.
	SetMetrics(m *obs.Metrics)
	SetTracer(t obs.Tracer)
	Metrics() *obs.Metrics

	// ApplyCommits replays the logical deltas src hands over — tuples that
	// need not be partitioned for this engine's layout — strictly: every
	// removed tuple must be stored and every inserted tuple must be new. A
	// checkpoint or bootstrap chunk is the delta {Inserted: tuples}.
	//
	// Records are pulled one at a time and consecutive records that route
	// whole to the same cell share one fork and one publish, so a reader
	// sees the state move from one exact prefix of the stream to a longer
	// one and never anything in between; where a run ends is decided by the
	// records, not by the caller (a record that splits across cells is
	// applied on its own, atomically per cell). src runs with the open
	// run's cell locked and its fork unpublished: it may read the engine,
	// not write it. Any error — src's or a record that does not replay —
	// drops the open fork whole, and published says how many leading
	// records are visible to readers all the same; a panic in src
	// propagates after the same drop. A logged cell (DurableRelation)
	// forks, logs and publishes every record on its own: a shared fork
	// there would put records on the log whose version never published.
	ApplyCommits(src CommitSource) (published int, err error)

	// ApplyCommit is ApplyCommits for the one record c.
	ApplyCommit(c wal.Commit) error

	// NumCells is the number of MVCC cells underneath: 1 for a
	// SyncRelation, the shard count for a ShardedRelation.
	NumCells() int
	cellAt(i int) *cell
}

// NewEngine builds the MVCC engine a shard layout describes: a
// ShardedRelation partitioned on opts.ShardKey when one is given (Shards
// defaults to DefaultShards), a single-cell SyncRelation for the zero
// options. A shard count without a shard key describes neither and is
// rejected rather than quietly served from one cell.
func NewEngine(spec *Spec, d *decomp.Decomp, opts ShardOptions) (Engine, error) {
	if len(opts.ShardKey) > 0 {
		sr, err := NewSharded(spec, d, opts)
		if err != nil {
			return nil, err
		}
		return sr, nil
	}
	if opts.Shards > 0 {
		return nil, fmt.Errorf("core: %d shards requested without a shard key", opts.Shards)
	}
	r, err := New(spec, d)
	if err != nil {
		return nil, err
	}
	return NewSync(r), nil
}

// SetCheckFDs toggles per-mutation FD validation on every cell of e. Like
// the other configuration knobs it belongs to the pre-share window: call it
// before the engine is visible to concurrent readers, since version forks
// inherit the flag from the version they copy.
func SetCheckFDs(e Engine, on bool) {
	for i := 0; i < e.NumCells(); i++ {
		e.cellAt(i).config(func(r *Relation) { r.CheckFDs = on })
	}
}

// errUnlogged rejects a write body that changed a logged cell without
// reporting what it changed (Upsert and Exclusive run caller code on the
// fork and have no delta to log).
var errUnlogged = errors.New("core: operation cannot be write-ahead logged; use Insert, Remove or Update on a durable relation")

// init publishes r as the cell's version 0, before the cell is shared.
//
//relvet:role=publish
func (c *cell) init(r *Relation) { c.cur.Store(r) }

// snapshot loads the published version for one read operation, counting
// the acquisition.
func (c *cell) snapshot() *Relation {
	r := c.cur.Load()
	if r.metrics != nil {
		r.metrics.SnapReads.Add(1)
	}
	return r
}

// config applies a configuration knob to the published version under the
// writer mutex. Configuration belongs to the pre-share window: version
// forks inherit whatever the version they copy was set to.
//
//relvet:role=config
func (c *cell) config(set func(*Relation)) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	set(c.cur.Load())
}

// commit finishes one write operation on the fork next, with wmu held. It
// is the engine's only publish point and its only log append:
//
//   - err != nil: the mutation failed; the fork is dropped and the
//     previous version stays current (the whole rollback story).
//   - !changed: a no-op neither logs, publishes nor drops.
//   - otherwise, on a logged cell, delta — the full tuples removed and
//     inserted — is appended first. The WAL rule: a version reaches readers
//     only after its delta is on the log (fsynced, under wal.SyncAlways),
//     so any state a reader or a crash can observe is reconstructible. A
//     failed append drops the fork and returns the append error; wal.Log
//     guarantees the failed record is not on disk, so a retry is safe.
//   - then the fork is published with one atomic store and the delta
//     handed to the sink, still under wmu, so per cell the sink sees
//     deltas in exactly WAL order.
//
// It returns err, or the reason the fork could not be logged.
//
//relvet:role=publish
func (c *cell) commit(next *Relation, changed bool, delta wal.Commit, err error) error {
	if err == nil && changed && c.log != nil {
		switch {
		case c.closed:
			err = ErrClosed
		case len(delta.Removed)+len(delta.Inserted) == 0:
			err = errUnlogged
		default:
			err = c.log.Append(delta)
		}
	}
	m := next.metrics
	switch {
	case err != nil:
		if m != nil {
			m.SnapDrops.Add(1)
		}
	case changed:
		c.cur.Store(next)
		if m != nil {
			m.SnapPublishes.Add(1)
		}
		if c.sink != nil {
			c.sink(delta)
		}
	}
	return err
}

// The write bodies: lock, fork, mutate, commit. Each builds its delta only
// when a log is attached — an unlogged cell has no use for one, and the
// slices would be the write path's only avoidable allocations.

// insert implements insert r t; a tuple already present is a no-op.
func (c *cell) insert(t relation.Tuple) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	next := c.cur.Load().beginVersion()
	changed, err := next.insert(t)
	var delta wal.Commit
	if changed && c.log != nil {
		delta.Inserted = []relation.Tuple{t}
	}
	return c.commit(next, changed, delta, err)
}

// remove implements remove r s on this cell. Every removed tuple is logged
// in full — the delta, not the pattern — so replay does not depend on
// pattern semantics. On error the fork is dropped and the count is 0.
func (c *cell) remove(pat relation.Tuple) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	next := c.cur.Load().beginVersion()
	removed, err := next.remove(pat)
	if err := c.commit(next, len(removed) > 0, wal.Commit{Removed: removed}, err); err != nil {
		return 0, err
	}
	return len(removed), nil
}

// update implements the keyed dupdate on this cell. point asserts the
// caller has certified pat as a superkey (the sharded tier's FD-validated
// shard key): an unlogged cell then takes the compiled in-place point
// path, which never materializes the replaced tuple. A logged cell needs
// that tuple — the delta is the full stored tuple replaced and the full
// merged tuple now stored, so replay is two exact-tuple operations with no
// key reasoning — and the log append dwarfs the saved plan work.
func (c *cell) update(pat, u relation.Tuple, point bool) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	next := c.cur.Load().beginVersion()
	var (
		n     int
		delta wal.Commit
		err   error
	)
	if point && c.log == nil {
		n, err = next.updatePoint(pat, u)
	} else {
		// One logical update; updateDelta leaves the counter to its caller.
		if next.metrics != nil {
			next.metrics.Updates.Add(1)
		}
		var old, upd relation.Tuple
		n, old, upd, err = next.updateDelta(pat, u)
		if n > 0 && c.log != nil {
			delta = wal.Commit{Removed: []relation.Tuple{old}, Inserted: []relation.Tuple{upd}}
		}
	}
	if err := c.commit(next, n > 0, delta, err); err != nil {
		return 0, err
	}
	return n, nil
}

// insertBatch inserts many tuples on one fork: N inserts cost one version
// and one log record (one fsync under wal.SyncAlways) instead of N. The
// batch is atomic — the first error drops the fork — and only the tuples
// that actually changed the relation are logged.
func (c *cell) insertBatch(ts []relation.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	next := c.cur.Load().beginVersion()
	var delta wal.Commit
	changed := false
	for _, t := range ts {
		ch, err := next.insert(t)
		if err != nil {
			return c.commit(next, false, delta, err)
		}
		changed = changed || ch
		if ch && c.log != nil {
			delta.Inserted = append(delta.Inserted, t)
		}
	}
	return c.commit(next, changed, delta, nil)
}

// removeBatch removes by many patterns on one fork, atomically, and
// returns the number of tuples removed.
func (c *cell) removeBatch(pats []relation.Tuple) (int, error) {
	if len(pats) == 0 {
		return 0, nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	next := c.cur.Load().beginVersion()
	var delta wal.Commit
	n := 0
	for _, pat := range pats {
		removed, err := next.remove(pat)
		if err != nil {
			return 0, c.commit(next, false, delta, err)
		}
		n += len(removed)
		if c.log != nil {
			delta.Removed = append(delta.Removed, removed...)
		}
	}
	if err := c.commit(next, n > 0, delta, nil); err != nil {
		return 0, err
	}
	return n, nil
}

// A CommitSource hands an applier its records one at a time: ok is false
// once it has none left, and an error ends the replay. Pulling, rather than
// taking a slice, lets the caller's kill-point fire before each record and
// keeps the records from being materialized or pinned as a batch: recovery
// pulls them from a wal.Scanner, which decodes each log record only when it
// is asked for it, and a follower from its connection.
type CommitSource func() (c wal.Commit, ok bool, err error)

// oneCommit is the source of the single record c.
func oneCommit(c wal.Commit) CommitSource {
	done := false
	return func() (wal.Commit, bool, error) {
		if done {
			return wal.Commit{}, false, nil
		}
		done = true
		return c, true, nil
	}
}

// apply is the engine's one replay body: it forks once, replays onto the
// fork every record src hands over — each strictly: a removed tuple must
// remove exactly one stored tuple, an inserted tuple must be new — and
// publishes them as one atomic version. Recovery and follower apply come
// through here (a checkpoint or bootstrap chunk is the delta {Inserted:
// tuples}), so a fault anywhere in the run drops an unpublished fork and
// leaves the relation being rebuilt at its last fully applied state: forks
// log no undo, so there is no earlier record boundary to fall back to. The
// log records acknowledged operations against known state, so any mismatch
// means the snapshot/log pair is inconsistent: fail loudly rather than
// guess.
//
// On a logged cell every record is its own fork, log append and publish:
// the WAL rule ties one record to one version, and a fork shared by several
// would leave records on the log whose version a later failure dropped.
//
// It returns how many records are published; on an unlogged cell that is
// all of them or, with an error, none.
func (c *cell) apply(src CommitSource) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var (
		published int
		next      *Relation // the open fork; nil between versions
		staged    int       // records replayed onto next
		changed   bool      // one of them carried a tuple
	)
	for {
		d, ok, err := src()
		if err == nil && ok {
			if next == nil {
				next = c.cur.Load().beginVersion()
			}
			err = replayOnto(next, d)
			staged++
			changed = changed || len(d.Removed)+len(d.Inserted) > 0
			if err == nil && c.log == nil {
				continue
			}
		}
		// The version is complete: src is dry, something failed, or the cell
		// is logged and d is the whole of it.
		if next != nil {
			if err = c.commit(next, changed, d, err); err == nil {
				published += staged
			}
			next, staged, changed = nil, 0, false
		}
		if err != nil || !ok {
			return published, err
		}
	}
}

// applyOne is apply for the one record d.
func (c *cell) applyOne(d wal.Commit) error {
	_, err := c.apply(oneCommit(d))
	return err
}

// replayOnto applies d to the fork next, strictly. A logged removal names
// the full stored tuple, so it goes straight to the containment-checked
// removal: there is no pattern to plan a query for.
func replayOnto(next *Relation, d wal.Commit) error {
	for _, t := range d.Removed {
		ok, err := next.removeStored(t)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("core: replay of record %d removed 0 tuples for %v, want exactly 1", d.Seq, t)
		}
	}
	for _, t := range d.Inserted {
		ch, err := next.insert(t)
		if err != nil {
			return err
		}
		if !ch {
			return fmt.Errorf("core: replay of record %d inserted duplicate tuple %v", d.Seq, t)
		}
	}
	return nil
}

// explain reports the published version's explanation of a query shape,
// stamped with the version it ran against. Lock-free like the query paths
// it describes; plan promotion inside the cache has its own
// synchronization.
func (c *cell) explain(input, output []string) (*QueryExplain, error) {
	r := c.cur.Load()
	e, err := r.ExplainQuery(input, output)
	if err != nil {
		return nil, err
	}
	e.Snapshot = true
	e.SnapshotVersion = r.Version()
	return e, nil
}
