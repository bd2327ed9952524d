package instance

import (
	"fmt"

	"repro/internal/colblock"
	"repro/internal/obs"
	"repro/internal/relation"
)

// RemoveTuple implements the per-tuple core of dremove (§4.5) for a full
// tuple t, in the same validate-then-apply form as Insert: the planning pass
// is the containment walk (Contains), which locates the instance of every
// variable and checks every edge without writing anything, and keeps the
// nodes above the full-column cut (X, Y); the apply pass breaks every edge
// instance crossing the cut (under which every node below represents exactly t),
// frees the unreachable nodes below it, and (optionally, see CleanupEmpty)
// deallocates maps above the cut that became empty — logging every write in
// the undo log so a mid-apply failure restores the instance. Pattern-level
// removal is built on top of this by the engine: it queries the matching
// tuples with a query plan and removes each.
//
// It reports whether t was present. A non-nil error means the removal was
// rolled back; the instance is unchanged unless the error wraps ErrTorn.
func (in *Instance) RemoveTuple(t relation.Tuple) (bool, error) {
	if !in.Contains(t) {
		return false, nil
	}
	in.planRemove()
	if err := in.applyRemove(); err != nil {
		return false, err
	}
	return true, nil
}

// planRemove turns the walk Contains just made into the removal's plan: it
// keeps the located nodes above the cut (X), the spine the apply writes and
// all cowSpine may clone, and drops those below it. The apply reaches the
// nodes below only through the crossing edges it breaks, and a clone of
// one would be unlinked as soon as it was made.
func (in *Instance) planRemove() {
	in.validated("remove", nil)
	for i := range in.updWalk {
		if in.updWalk[i].below {
			in.scr.nodes[i] = nil
		}
	}
}

// applyRemove executes the removal from the plan, logging compensations.
// Each in-edge entry is found and unlinked by one Delete, which hands back
// the child it pointed at: the apply pass scans a list edge once, not three
// times.
func (in *Instance) applyRemove() (err error) {
	if in.met != nil {
		in.met.MutApplies.Add(1)
	}
	if in.tr != nil {
		defer func() { in.tr.Event(obs.Event{Kind: obs.EvMutApply, Op: "remove", Err: err}) }()
	}
	in.undo.reset()
	defer in.containApply()
	if in.cow {
		if ferr := in.cowSpine(); ferr != nil {
			return ferr
		}
	}
	scr := &in.scr

	// Break every edge crossing the cut. On a cow fork the subtree below
	// the cut needs no release walk: breaking the crossing edges already
	// makes it unreachable from this version, and the predecessor version
	// still reaches it untouched — the GC reclaims it when the predecessor
	// is dropped.
	for i := range in.rmBreaks {
		le := &in.rmBreaks[i]
		parent := scr.nodes[le.parent]
		if in.fi != nil {
			if ferr := in.fi.Point("instance.remove.break", true); ferr != nil {
				return in.abort(ferr)
			}
		}
		k := scr.keyAt(le.keyPos)
		if child, ok := parent.Map(le.slot).Delete(in.view, k); ok && !in.cow {
			in.undo.pushRelink(parent, le.slot, k, child)
			in.release(child)
		}
	}

	// Deallocate maps above the cut that became empty, deepest first so the
	// cleanup cascades toward the root.
	if in.CleanupEmpty {
		for x := len(in.rmXvars) - 1; x >= 0; x-- {
			i := in.rmXvars[x]
			if i == 0 || !in.isEmptyNode(scr.nodes[i]) {
				continue
			}
			for _, k := range in.updWalk[i].in {
				ue := &in.linkEdges[k]
				pn := scr.nodes[ue.parent]
				if in.fi != nil {
					if ferr := in.fi.Point("instance.remove.cleanup", true); ferr != nil {
						return in.abort(ferr)
					}
				}
				k := scr.keyAt(ue.keyPos)
				child, ok := pn.Map(ue.slot).Delete(in.view, k)
				if !ok {
					continue
				}
				if !in.cow {
					in.undo.pushRelink(pn, ue.slot, k, child)
				}
				if child != scr.nodes[i] {
					// Every in-edge of a located node leads to it under the
					// tuple's key; anything else is an instance that was
					// already inconsistent.
					return in.abort(fmt.Errorf("instance: edge %s→%s reaches a different %s node than its other in-edges", ue.e.Parent, ue.e.Target, in.updWalk[i].name))
				}
				child.refs--
				if !in.cow {
					in.undo.pushRef(child)
				}
			}
		}
	}

	if in.fi != nil {
		if ferr := in.fi.Point("instance.remove.commit", true); ferr != nil {
			return in.abort(ferr)
		}
	}
	in.count--
	in.undo.reset()
	return nil
}

// release decrements a node's reference count and, when it becomes
// unreachable, recursively releases everything it points to, logging each
// decrement so rollback can resurrect the subtree. Below a full-column cut
// every reachable node represents only the removed tuple, so the recursive
// free is exact.
func (in *Instance) release(n *Node) {
	n.refs--
	in.undo.pushRef(n)
	if n.refs > 0 {
		return
	}
	for _, m := range n.maps() {
		m.Range(func(_ []colblock.Code, child *Node) bool {
			in.release(child)
			return true
		})
	}
}

// UpdateInPlace implements the in-place fast path of dupdate (§4.5): when
// the pattern s is a key for the relation and the update u touches only
// columns stored in unit primitives — never a map key or a variable's bound
// columns — the matched tuple's nodes can be reused and the new values
// written directly into the units. Like Insert and RemoveTuple it runs in
// two phases: the planning pass locates every node and computes the merged
// unit values, the apply pass writes them with undo logging.
//
// t locates the stored tuple being updated: it must agree with that tuple
// and bind every map-edge key column (EdgeKeyCols) — the full stored tuple
// always qualifies, but a keyed engine can pass just the key pattern when it
// covers the edge keys. The engine verifies the match exists with a query
// before calling, which is why no extra presence check runs here.
// UpdateInPlace reports whether it applied; (false, nil) means the update
// cannot run in place and the engine falls back to remove + insert, while a
// non-nil error means the update was rejected or rolled back.
func (in *Instance) UpdateInPlace(t, u relation.Tuple) (bool, error) {
	if !in.CanUpdateInPlace(u.Dom()) {
		return false, nil
	}
	if !in.edgeKeyCols.SubsetOf(t.Dom()) {
		// A locator missing edge-key columns used to drive the walk into a
		// miss and panic; reject it up front instead.
		return false, fmt.Errorf("instance: update locator %v does not bind the map-edge key columns %v", t, in.edgeKeyCols)
	}
	if err := in.planUpdate(t, u); err != nil {
		return false, err
	}
	if err := in.applyUpdate(); err != nil {
		return false, err
	}
	return true, nil
}

// planUpdate locates the node of every variable and computes the merged unit
// words without writing anything. The locator's codes go into scr.codes by
// column position — Unset where t binds nothing, which the walk never reads:
// it reads edge-key positions only — and u's codes over them, interned here:
// an update's values are new to the dictionary as often as an insert's.
func (in *Instance) planUpdate(t, u relation.Tuple) (err error) {
	defer func() { in.validated("update", err) }()
	scr := &in.scr
	scr.reset(len(in.updWalk), len(in.linkEdges))
	udom := u.Dom()
	for i, col := range in.cols {
		scr.codes[i] = colblock.Unset
		if v, ok := u.Get(col); ok {
			scr.codes[i] = in.code(v)
		} else if v, ok := t.Get(col); ok {
			c, found := in.view.Find(v)
			if !found { // a value without a code is stored nowhere
				return fmt.Errorf("instance: no tuple matching %v found while updating", t)
			}
			scr.codes[i] = c
		}
	}
	for i := range in.updWalk {
		w := &in.updWalk[i]
		n := in.root
		if i > 0 {
			if n = in.locate(i); n == nil {
				return fmt.Errorf("instance: node %s not found while updating %v", w.name, t)
			}
		}
		scr.nodes[i] = n
		words := n.words()
		for j := range w.units {
			uu := &w.units[j]
			if !uu.u.Cols.Intersects(udom) {
				continue
			}
			// The merged unit: u's word where the update binds the column
			// (right bias), the stored word elsewhere.
			uw := unitWrite{wi: i, off: uu.off, src: len(scr.wbuf), n: len(uu.pos), logUndo: true}
			for k, p := range uu.pos {
				c := words[uu.off+k]
				if udom.Has(in.cols[p]) {
					c = scr.codes[p]
				}
				scr.wbuf = append(scr.wbuf, c)
			}
			scr.units = append(scr.units, uw)
		}
	}
	return nil
}

// applyUpdate writes the planned unit words, logging the previous ones (or
// cloning the spine instead, on a cow fork).
func (in *Instance) applyUpdate() (err error) {
	if in.met != nil {
		in.met.MutApplies.Add(1)
	}
	if in.tr != nil {
		defer func() { in.tr.Event(obs.Event{Kind: obs.EvMutApply, Op: "update", Err: err}) }()
	}
	in.undo.reset()
	defer in.containApply()
	if in.cow {
		if ferr := in.cowSpine(); ferr != nil {
			return ferr
		}
	}
	if ferr := in.writeUnits("instance.update.unit"); ferr != nil {
		return ferr
	}
	in.undo.reset()
	return nil
}

// CanUpdateInPlace reports whether an update binding the columns ucols can
// be performed in place on this decomposition: no map key and no variable's
// bound columns may mention an updated column.
func (in *Instance) CanUpdateInPlace(ucols relation.Cols) bool {
	return !ucols.Intersects(in.inPlaceBlocked)
}
