package instance

import (
	"errors"
	"fmt"

	"repro/internal/colblock"
	"repro/internal/obs"
)

// ErrTorn reports the one failure mode the engine cannot mask: a mutation
// failed mid-apply and replaying its undo log also failed, so the instance
// may no longer be well-formed. Errors wrapping ErrTorn make the owning
// core.Relation flip its Poisoned flag and refuse further mutations.
var ErrTorn = errors.New("instance: rollback failed, instance may be torn")

// Torn reports whether an undo-log rollback has ever failed on this
// instance. A torn instance makes no well-formedness promises; the engine
// degrades it to read-only.
func (in *Instance) Torn() bool { return in.torn }

type undoKind uint8

const (
	undoUnit   undoKind = iota // restore a unit's previous words
	undoUnlink                 // delete a map entry the mutation added, dropping its ref
	undoRelink                 // re-add a map entry the mutation deleted
	undoRef                    // re-increment a reference count the mutation dropped
)

// An undoEntry is one compensating action. For undoUnit and undoRef, n is
// the node whose words or refcount change; for the edge kinds it is the
// parent node holding the map. The words an entry restores — a unit's
// previous columns, a map entry's key — are cnt words of the log's pooled
// buffer from woff on.
type undoEntry struct {
	kind  undoKind
	n     *Node
	slot  int // undoUnit: first word restored; edge kinds: container index
	woff  int
	cnt   int
	child *Node
}

// An undoLog records compensating actions for the writes of one mutation's
// apply phase, in apply order. Replaying it in reverse restores the exact
// pre-mutation node graph: every unit word, map entry, and reference count.
// (Iteration order inside a map that had an entry deleted and re-added may
// differ; α and well-formedness are unaffected.)
type undoLog struct {
	entries []undoEntry
	words   []colblock.Code
}

func (u *undoLog) reset() {
	u.entries = u.entries[:0]
	u.words = u.words[:0]
}

// save copies w into the pooled buffer and returns where.
func (u *undoLog) save(w []colblock.Code) (woff, cnt int) {
	woff = len(u.words)
	u.words = append(u.words, w...)
	return woff, len(w)
}

func (u *undoLog) pushUnit(n *Node, off int, prev []colblock.Code) {
	woff, cnt := u.save(prev)
	u.entries = append(u.entries, undoEntry{kind: undoUnit, n: n, slot: off, woff: woff, cnt: cnt})
}

func (u *undoLog) pushUnlink(parent *Node, slot int, key []colblock.Code, child *Node) {
	woff, cnt := u.save(key)
	u.entries = append(u.entries, undoEntry{kind: undoUnlink, n: parent, slot: slot, woff: woff, cnt: cnt, child: child})
}

func (u *undoLog) pushRelink(parent *Node, slot int, key []colblock.Code, child *Node) {
	woff, cnt := u.save(key)
	u.entries = append(u.entries, undoEntry{kind: undoRelink, n: parent, slot: slot, woff: woff, cnt: cnt, child: child})
}

func (u *undoLog) pushRef(n *Node) {
	u.entries = append(u.entries, undoEntry{kind: undoRef, n: n})
}

// rollback replays the log in reverse and clears it; vw is the view the
// mutation's keys were encoded under. A panic during replay (a failing data
// structure, or an injected double fault) is caught and returned as an
// error; the caller marks the instance torn.
func (u *undoLog) rollback(vw colblock.View) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("instance: panic while rolling back: %v", p)
		}
	}()
	for i := len(u.entries) - 1; i >= 0; i-- {
		e := &u.entries[i]
		w := u.words[e.woff : e.woff+e.cnt]
		switch e.kind {
		case undoUnit:
			copy(e.n.words()[e.slot:], w)
		case undoUnlink:
			e.n.Map(e.slot).Delete(vw, w)
			e.child.refs--
		case undoRelink:
			e.n.Map(e.slot).Put(vw, w, e.child)
		case undoRef:
			e.n.refs++
		}
	}
	u.reset()
	return nil
}

// abort is the error exit of an apply phase: it rolls the recorded writes
// back and returns the cause. If rollback itself fails the instance is
// marked torn and the returned error wraps ErrTorn. A cow fork has nothing
// to roll back — its writes touched only nodes private to the fork, and
// the engine drops the whole fork on error — so it can never tear.
func (in *Instance) abort(cause error) error {
	if in.cow {
		return cause
	}
	rerr := in.rollbackCounted()
	if rerr != nil {
		in.torn = true
		return fmt.Errorf("%w (cause: %v; rollback: %v)", ErrTorn, cause, rerr)
	}
	return cause
}

// rollbackCounted replays the undo log under the observability hooks: one
// MutRollbacks increment per replay and an EvUndoReplay event carrying the
// number of compensating entries and the replay failure, if any.
func (in *Instance) rollbackCounted() error {
	n := len(in.undo.entries)
	if in.met != nil {
		in.met.MutRollbacks.Add(1)
	}
	rerr := in.undo.rollback(in.view)
	if in.tr != nil {
		in.tr.Event(obs.Event{Kind: obs.EvUndoReplay, Rows: n, Err: rerr})
	}
	return rerr
}

// containApply is deferred around every apply phase: a panic escaping the
// writes (a data-structure failure or an injected fault) triggers the same
// undo-log rollback as an error exit, and then propagates. The core API
// boundary converts the re-raised panic into an error; by the time it does,
// the instance is already restored — or flagged torn when restoring failed.
func (in *Instance) containApply() {
	if p := recover(); p != nil {
		if !in.cow {
			if rerr := in.rollbackCounted(); rerr != nil {
				in.torn = true
			}
		}
		panic(p)
	}
}
