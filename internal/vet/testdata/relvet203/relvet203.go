// Package relvet203 is the walorder corpus: wal.Append must dominate
// the publish, and append-error paths may only drop the fork.
package relvet203

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/wal"
)

//relvet:role=fork
func fork(cur *atomic.Pointer[core.Relation]) *core.Relation {
	c := *cur.Load()
	return &c
}

// publish is a stand-alone publish point: install only a changed,
// error-free fork; otherwise drop it.
//
//relvet:role=publish
func publish(cur *atomic.Pointer[core.Relation], next *core.Relation, changed bool, err error) error {
	if changed && err == nil {
		cur.Store(next)
	}
	return err
}

func triggerHoisted(cur *atomic.Pointer[core.Relation], log *wal.Log, rec wal.Commit) error {
	next := fork(cur)
	if err := publish(cur, next, true, nil); err != nil { // want relvet203
		return err
	}
	if werr := log.Append(rec); werr != nil {
		return werr
	}
	return nil
}

func triggerErrorPublish(cur *atomic.Pointer[core.Relation], log *wal.Log, rec wal.Commit) error {
	next := fork(cur)
	if werr := log.Append(rec); werr != nil {
		return publish(cur, next, true, werr) // want relvet203
	}
	return publish(cur, next, true, nil)
}

func triggerErrorStore(cur *atomic.Pointer[core.Relation], log *wal.Log, rec wal.Commit) error {
	next := fork(cur)
	if werr := log.Append(rec); werr != nil {
		cur.Store(next) // want relvet203
		return werr
	}
	return publish(cur, next, true, nil)
}

func triggerDiscard(cur *atomic.Pointer[core.Relation], log *wal.Log, rec wal.Commit) error {
	next := fork(cur)
	_ = log.Append(rec) // want relvet203
	return publish(cur, next, true, nil)
}

// nearMissDropOnError appends, and on failure publishes with
// changed=false — the sanctioned drop.
func nearMissDropOnError(cur *atomic.Pointer[core.Relation], log *wal.Log, rec wal.Commit) error {
	next := fork(cur)
	if werr := log.Append(rec); werr != nil {
		return publish(cur, next, false, werr)
	}
	return publish(cur, next, true, nil)
}

// nearMissSplitAssign binds the append error a statement earlier; the
// ordering contract is the same.
func nearMissSplitAssign(cur *atomic.Pointer[core.Relation], log *wal.Log, rec wal.Commit) error {
	next := fork(cur)
	werr := log.Append(rec)
	if werr != nil {
		return publish(cur, next, false, werr)
	}
	return publish(cur, next, true, nil)
}

// nearMissReplay publishes without any append: the recovery path, where
// the record is already durable in the log being replayed.
func nearMissReplay(cur *atomic.Pointer[core.Relation]) error {
	next := fork(cur)
	return publish(cur, next, true, nil)
}

// nearMissEngineShape is the engine's cell.commit: one publish point that
// holds both the append and the store, the append error deciding between
// them.
//
//relvet:role=publish
func nearMissEngineShape(cur *atomic.Pointer[core.Relation], log *wal.Log, next *core.Relation, changed bool, rec wal.Commit, err error) error {
	if err == nil && changed && log != nil {
		err = log.Append(rec)
	}
	switch {
	case err != nil:
	case changed:
		cur.Store(next)
	}
	return err
}

// triggerEngineShapeHoisted is the same publish point with the store moved
// ahead of the append.
//
//relvet:role=publish
func triggerEngineShapeHoisted(cur *atomic.Pointer[core.Relation], log *wal.Log, next *core.Relation, changed bool, rec wal.Commit, err error) error {
	if err == nil && changed {
		cur.Store(next) // want relvet203
	}
	if err == nil && changed && log != nil {
		err = log.Append(rec)
	}
	return err
}
