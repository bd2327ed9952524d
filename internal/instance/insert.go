package instance

import (
	"fmt"

	"repro/internal/colblock"
	"repro/internal/obs"
	"repro/internal/relation"
)

// Insert implements dinsert (§4.4) in validate-then-apply two-phase form: a
// read-only planning pass locates or allocates the node for every
// decomposition variable and computes the full set of unit and edge writes,
// detecting FD conflicts before any state changes; the apply pass executes
// the planned writes, recording compensating actions in the undo log so that
// a failure mid-apply (an injected fault or a panicking data structure)
// restores the instance exactly. It reports whether the relation changed
// (false if t was already present). The plan is the containment check: a
// tuple whose plan writes nothing is already represented, so no separate
// walk looks for it first.
//
// Lemma 4(a) requires ∆ ⊨ r ∪ {t}. The planning pass rejects, without
// touching shared nodes, every violation the instance's shape can show: a
// located node whose unit disagrees with t, an entry under t's key pointing
// at another node than the one t reaches, a new entry into an existing node
// (t would reach it under a second valuation of its bound columns) and a
// second key in a container whose key its parent's bound columns determine.
// An FD those checks cannot see — one no path's keys and no such container
// imply — is checked by the engine in package core, by query, before it
// calls Insert.
func (in *Instance) Insert(t relation.Tuple) (bool, error) {
	if !t.Dom().Equal(in.dcmp.Cols()) {
		return false, fmt.Errorf("instance: insert of %v into relation over %v", t, in.dcmp.Cols())
	}
	in.encode(t)
	if changes, err := in.planInsert(t); err != nil || !changes {
		return false, err
	}
	if err := in.applyInsert(); err != nil {
		return false, err
	}
	return true, nil
}

// planInsert is the read-only planning pass over the tuple scr.codes holds
// (t itself is only for error messages). It reports whether the plan writes
// anything: a plan without a write is a tuple already present, which is no
// mutation to validate and is not counted as one.
func (in *Instance) planInsert(t relation.Tuple) (bool, error) {
	err := in.walkInsert(t)
	if err == nil && len(in.scr.units) == 0 && len(in.scr.links) == 0 {
		return false, nil
	}
	in.validated("insert", err)
	return true, err
}

// validated accounts one planning pass of the mutation op that ended in
// err.
func (in *Instance) validated(op string, err error) {
	if in.met != nil {
		in.met.MutValidates.Add(1)
	}
	if in.tr != nil {
		in.tr.Event(obs.Event{Kind: obs.EvMutValidate, Op: op, Err: err})
	}
}

// walkInsert finds or creates the node for each variable, root first,
// locating existing nodes through any incoming map edge from an
// already-located parent (§4.4's example does exactly this for the shared
// node w), and records every unit and edge write the apply pass must
// perform. Nodes allocated here are garbage if the plan is rejected — they
// are not linked into the instance.
func (in *Instance) walkInsert(t relation.Tuple) error {
	scr := &in.scr
	scr.reset(len(in.updWalk), len(in.linkEdges))
	for i := range in.updWalk {
		w := &in.updWalk[i]
		n := in.root
		fresh := false
		if i > 0 {
			if n = in.locate(i); n == nil {
				n = in.newNode(i)
				fresh = true
			}
		}
		scr.nodes[i] = n
		scr.fresh[i] = fresh
		// Plan unit writes; an existing node whose unit disagrees with t
		// means the insert would violate the functional dependencies.
		words := n.words()
		for j := range w.units {
			uu := &w.units[j]
			if !fresh && words[uu.off] != colblock.Unset {
				for k, p := range uu.pos {
					if words[uu.off+k] != scr.codes[p] {
						return fmt.Errorf("instance: insert of %v violates the functional dependencies: node %s already holds %v", t, w.name, n.UnitAt(in, uu.u))
					}
				}
				continue
			}
			uw := unitWrite{wi: i, off: uu.off, src: len(scr.wbuf), n: len(uu.pos), logUndo: !fresh}
			for _, p := range uu.pos {
				scr.wbuf = append(scr.wbuf, scr.codes[p])
			}
			scr.units = append(scr.units, uw)
		}
	}
	// Plan the map-edge links, bumping the child's reference count for each
	// new entry. Three shapes of link are FD violations, caught here before
	// anything is written: an existing entry pointing at a different node; a
	// new entry into an existing node, which already has every in-edge linked
	// under its bound valuation, so t reaches it under another one; and a
	// second key in a container whose key the parent's bound columns
	// determine. The edges the walk above already searched answer from the
	// memo.
	for k := range in.linkEdges {
		le := &in.linkEdges[k]
		if existing := in.child(k); existing != nil {
			if existing != scr.nodes[le.target] {
				return fmt.Errorf("instance: insert of %v violates the functional dependencies: edge %s→%s key %v points elsewhere", t, le.e.Parent, le.e.Target, t.Project(le.e.Key))
			}
			continue
		}
		if !scr.fresh[le.target] {
			return fmt.Errorf("instance: insert of %v violates the functional dependencies: node %s is reached through edge %s→%s under a second valuation", t, le.e.Target, le.e.Parent, le.e.Target)
		}
		if le.single && scr.nodes[le.parent].Map(le.slot).Len() > 0 {
			return fmt.Errorf("instance: insert of %v violates the functional dependencies: edge %s→%s already holds a key, and %s determines it", t, le.e.Parent, le.e.Target, in.dcmp.Var(le.e.Parent).Bound)
		}
		scr.links = append(scr.links, linkWrite{pi: le.parent, slot: le.slot, ci: le.target, key: le.keyPos})
	}
	return nil
}

// applyInsert executes the planned writes. Unit writes into pre-existing
// nodes are logged for undo; writes into nodes this plan allocated are not
// (an unlinked node is garbage either way). Each link is logged so rollback
// unlinks it and drops the reference it added. On a cow fork the undo log is
// skipped entirely — the spine is cloned up front and a failed apply
// abandons the whole fork instead of rolling back.
func (in *Instance) applyInsert() (err error) {
	if in.met != nil {
		in.met.MutApplies.Add(1)
	}
	if in.tr != nil {
		// On a panic exit containApply (registered later, so run first) has
		// already rolled back and re-raised; this event then reports err nil —
		// the EvUndoReplay event carries the failure.
		defer func() { in.tr.Event(obs.Event{Kind: obs.EvMutApply, Op: "insert", Err: err}) }()
	}
	in.undo.reset()
	defer in.containApply()
	if in.cow {
		if ferr := in.cowSpine(); ferr != nil {
			return ferr
		}
	}
	if ferr := in.writeUnits("instance.insert.unit"); ferr != nil {
		return ferr
	}
	for i := range in.scr.links {
		lw := &in.scr.links[i]
		parent, child := in.scr.nodes[lw.pi], in.scr.nodes[lw.ci]
		if in.fi != nil {
			if ferr := in.fi.Point("instance.insert.link", true); ferr != nil {
				return in.abort(ferr)
			}
		}
		key := in.scr.keyAt(lw.key)
		parent.Map(lw.slot).Put(in.view, key, child)
		child.refs++
		if !in.cow {
			in.undo.pushUnlink(parent, lw.slot, key, child)
		}
	}
	if in.fi != nil {
		if ferr := in.fi.Point("instance.insert.commit", true); ferr != nil {
			return in.abort(ferr)
		}
	}
	in.count++
	in.undo.reset()
	return nil
}

// writeUnits executes the planned unit writes, each behind the injection
// point site, saving the words it overwrites in the undo log where the plan
// asks for it (never on a cow fork, whose nodes are private clones).
func (in *Instance) writeUnits(site string) error {
	for i := range in.scr.units {
		uw := &in.scr.units[i]
		n := in.scr.nodes[uw.wi]
		if in.fi != nil {
			if ferr := in.fi.Point(site, true); ferr != nil {
				return in.abort(ferr)
			}
		}
		dst := n.words()[uw.off : uw.off+uw.n]
		if uw.logUndo && !in.cow {
			in.undo.pushUnit(n, uw.off, dst)
		}
		copy(dst, in.scr.wbuf[uw.src:uw.src+uw.n])
	}
	return nil
}
