package instance

import (
	"fmt"

	"repro/internal/colblock"
	"repro/internal/decomp"
	"repro/internal/relation"
	"repro/internal/value"
)

// CheckWF implements the well-formedness judgment of Figure 5,
// ·, d ⊨ ·, dˆ, plus the implementation invariants the runtime adds on top
// (reference counts, consistent bound valuations for shared nodes). It is
// O(instance size × relation size) and intended for tests and debugging;
// the mutation operations preserve well-formedness by construction
// (Lemma 4, exercised as a property test).
func (in *Instance) CheckWF() error {
	c := &wfChecker{
		in:    in,
		bound: make(map[*Node]relation.Tuple),
		memo:  make(map[*Node]*relation.Relation),
		refs:  make(map[*Node]int),
	}
	// The root plays the role of rule WFVAR at the top level: its bound
	// valuation is the empty tuple.
	if err := c.checkNode(in.root, relation.NewTuple()); err != nil {
		return err
	}
	// Implementation invariant: stored reference counts equal the number of
	// incoming edge instances among reachable nodes.
	for n, want := range c.refs {
		if n.Refs() != want {
			return fmt.Errorf("instance: node %s/%v has refcount %d, want %d", c.in.VarOf(n), c.bound[n], n.refs, want)
		}
	}
	if in.root.refs != 0 {
		return fmt.Errorf("instance: root has refcount %d", in.root.refs)
	}
	return nil
}

type wfChecker struct {
	in    *Instance
	bound map[*Node]relation.Tuple     // node → its B-valuation
	memo  map[*Node]*relation.Relation // α, for the matching conditions
	refs  map[*Node]int                // observed in-degree
}

// checkNode checks a node instance against its variable's binding under the
// B-valuation bt observed along the current path (rules WFLET and WFVAR).
// A single path may bind only part of the declared bound columns — rule
// AMAP's A ⊇ B ∪ C says A collects the columns of *all* paths — so the
// checker requires each observed valuation to be a fragment of B and all
// observed fragments to agree.
func (c *wfChecker) checkNode(n *Node, bt relation.Tuple) error {
	if int(n.vi) >= len(c.in.layouts) {
		return fmt.Errorf("instance: node refers to unknown variable #%d", n.vi)
	}
	b := c.in.dcmp.Var(c.in.VarOf(n))
	if !bt.Dom().SubsetOf(b.Bound) {
		return fmt.Errorf("instance: node %s reached with bound valuation %v, want a fragment of %v", c.in.VarOf(n), bt, b.Bound)
	}
	if prev, seen := c.bound[n]; seen {
		// A shared node must be reached with consistent valuations through
		// every path (this is what rule AMAP's A ⊇ B ∪ C guarantees).
		if !prev.Matches(bt) {
			return fmt.Errorf("instance: shared node %s reached with valuations %v and %v", c.in.VarOf(n), prev, bt)
		}
		c.bound[n] = prev.Merge(bt)
		return nil
	}
	c.bound[n] = bt
	return c.checkPrim(b.Def, n, bt)
}

func (c *wfChecker) checkPrim(p decomp.Primitive, n *Node, bt relation.Tuple) error {
	switch p := p.(type) {
	case *decomp.Unit:
		// Rule WFUNIT: dom t = C, every column a word the dictionary decodes.
		off := c.in.unitSlots[p]
		for _, w := range n.words()[off : off+p.Cols.Len()] {
			if w != colblock.Unset && !c.in.view.Valid(w) {
				return fmt.Errorf("instance: unit of %s holds a word %x its dictionary cannot decode", c.in.VarOf(n), w)
			}
		}
		if u := n.UnitAt(c.in, p); !u.Dom().Equal(p.Cols) {
			return fmt.Errorf("instance: unit of %s holds %v, want columns %v", c.in.VarOf(n), u, p.Cols)
		}
		return nil
	case *decomp.MapEdge:
		// Rule WFMAP: every key binds the key columns — in words: arity of
		// them, each one this version's dictionary can decode — and matches
		// the child's relation, and the child is well-formed.
		var err error
		names := p.Key.Names()
		n.Map(c.in.edgeSlots[p]).Range(func(kw []colblock.Code, child *Node) bool {
			c.refs[child]++
			vals := make([]value.Value, len(kw))
			for i, w := range kw {
				if w == colblock.Unset || !c.in.view.Valid(w) {
					err = fmt.Errorf("instance: edge %s→%s has key %x, want columns %v", c.in.VarOf(n), p.Target, kw, p.Key)
					return false
				}
				vals[i] = c.in.view.Decode(w)
			}
			k := relation.SortedTuple(names, vals)
			if err = c.checkNode(child, bt.Merge(k).Project(c.in.dcmp.Var(p.Target).Bound)); err != nil {
				return false
			}
			childRel := c.alpha(child)
			for _, tup := range childRel.All() {
				if !tup.Matches(k) {
					err = fmt.Errorf("instance: edge %s→%s key %v does not match child tuple %v", c.in.VarOf(n), p.Target, k, tup)
					return false
				}
			}
			return true
		})
		return err
	case *decomp.Join:
		// Rule WFJOIN: no dangling tuples — the two sides' projections onto
		// their common columns agree.
		if err := c.checkPrim(p.Left, n, bt); err != nil {
			return err
		}
		if err := c.checkPrim(p.Right, n, bt); err != nil {
			return err
		}
		l := c.in.alphaPrim(p.Left, n, c.memo)
		r := c.in.alphaPrim(p.Right, n, c.memo)
		pl := relation.Project(l, r.Cols())
		pr := relation.Project(r, l.Cols())
		if !pl.Equal(pr) {
			return fmt.Errorf("instance: join in %s has dangling tuples: %v vs %v", c.in.VarOf(n), pl, pr)
		}
		return nil
	default:
		return fmt.Errorf("instance: unknown primitive %T", p)
	}
}

func (c *wfChecker) alpha(n *Node) *relation.Relation {
	return c.in.alphaNode(n, c.memo)
}
