package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
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
// Every tier is the engine body over cells (see engine). Live mutations,
// crash recovery and follower apply all run the bodies below, so the
// atomicity and WAL-ordering arguments are made once, in commit. The
// padding keeps neighbouring shards' write-path state off one cache line.
type cell struct {
	wmu sync.Mutex               // serializes writers; readers never touch it
	cur atomic.Pointer[Relation] // the published immutable version

	// Durability is a property of the cell, off while log is nil. Both
	// fields are guarded by wmu.
	log  *wal.Log   // deltas are appended here before their version publishes
	sink CommitSink // acknowledged-delta tap (see SetCommitSink)

	// closed is the ErrClosed fence: Close sets it under wmu, write bodies
	// check it under wmu before they fork, and reads check it where they
	// load their version (load), without a lock.
	closed atomic.Bool

	_ [24]byte
}

// errUnlogged rejects a write body that changed a logged cell without
// reporting what it changed (Upsert runs caller code on the fork and has
// no delta to log).
var errUnlogged = errors.New("core: operation cannot be write-ahead logged; use Insert, Remove or Update on a durable relation")

// init publishes r as the cell's version 0, before the cell is shared.
//
//relvet:role=publish
func (c *cell) init(r *Relation) { c.cur.Store(r) }

// load returns the published version for one operation, or false once the
// cell's log is closed (the caller reports ErrClosed).
func (c *cell) load() (*Relation, bool) {
	if c.closed.Load() {
		return nil, false
	}
	return c.cur.Load(), true
}

// snapshot is load for one query, counting the acquisition.
func (c *cell) snapshot() (*Relation, bool) {
	r, ok := c.load()
	if ok && r.metrics != nil {
		r.metrics.SnapReads.Add(1)
	}
	return r, ok
}

// fence is the write side's ErrClosed check: write bodies run it under wmu
// before they fork, and an empty batch runs it on its own.
func (c *cell) fence() error {
	if c.closed.Load() {
		return ErrClosed
	}
	return nil
}

// fork begins the next version for one write operation, with wmu held, or
// fails with ErrClosed once the cell's log is closed.
func (c *cell) fork() (*Relation, error) {
	if err := c.fence(); err != nil {
		return nil, err
	}
	return c.cur.Load().beginVersion(), nil
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
		if len(delta.Removed)+len(delta.Inserted) == 0 {
			err = errUnlogged
		} else {
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
	return c.insertHeld(t)
}

// insertHeld is insert with wmu already held.
func (c *cell) insertHeld(t relation.Tuple) error {
	next, err := c.fork()
	if err != nil {
		return err
	}
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
	next, err := c.fork()
	if err != nil {
		return 0, err
	}
	removed, err := next.remove(pat)
	if err := c.commit(next, len(removed) > 0, wal.Commit{Removed: removed}, err); err != nil {
		return 0, err
	}
	return len(removed), nil
}

// update implements the keyed dupdate on this cell. A logged cell asks
// updateDelta for the replaced and the merged tuple — the delta is the full
// stored tuple replaced and the full merged tuple now stored, so replay is
// two exact-tuple operations with no key reasoning; an unlogged one does
// not, and may update in place without ever copying the match out.
func (c *cell) update(pat, u relation.Tuple) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.updateHeld(pat, u, nil)
}

// updateHeld is update with wmu already held. A non-nil check vets the
// tuple the update stores before the fork commits; its error drops the fork.
func (c *cell) updateHeld(pat, u relation.Tuple, check func(relation.Tuple) error) (int, error) {
	next, err := c.fork()
	if err != nil {
		return 0, err
	}
	// One logical update; updateDelta leaves the counter to its caller.
	if next.metrics != nil {
		next.metrics.Updates.Add(1)
	}
	n, old, upd, err := next.updateDelta(pat, u, c.log != nil || check != nil)
	if err == nil && n > 0 && check != nil {
		err = check(upd)
	}
	var delta wal.Commit
	if n > 0 && c.log != nil {
		delta = wal.Commit{Removed: []relation.Tuple{old}, Inserted: []relation.Tuple{upd}}
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
		return c.fence()
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.insertBatchHeld(ts)
}

// insertBatchHeld is insertBatch with wmu already held.
func (c *cell) insertBatchHeld(ts []relation.Tuple) error {
	next, err := c.fork()
	if err != nil {
		return err
	}
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

// A CommitSource hands an applier its records one at a time: ok is false
// once it has none left, and an error ends the replay. Pulling, rather than
// taking a slice, lets the caller's kill-point fire before each record and
// keeps the records from being materialized or pinned as a batch: recovery
// pulls them from a wal.Scanner, which decodes each log record only when it
// is asked for it, and a follower from its connection. A record is a view
// valid until the next call; clone to keep (wal.Commit.Clone): both
// decoders hand out every record in one reused buffer, so an applier
// replays a record before it pulls the next.
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
	if err := c.fence(); err != nil {
		return 0, err
	}
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
			if err == nil && c.sink != nil {
				d = d.Clone() // the sink may keep the delta; d is src's view
			}
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
