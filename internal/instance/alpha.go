package instance

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/relation"
)

// Relation computes the abstraction function α (§3.2): the relation this
// instance represents. Shared nodes are evaluated once via memoization, as
// in the paper's environment Γ. It is the semantic ground truth used by the
// soundness property tests; queries should use plans, not this.
func (in *Instance) Relation() *relation.Relation {
	memo := make(map[*Node]*relation.Relation)
	return in.alphaNode(in.root, memo)
}

func (in *Instance) alphaNode(n *Node, memo map[*Node]*relation.Relation) *relation.Relation {
	if r, ok := memo[n]; ok {
		return r
	}
	r := in.alphaPrim(in.dcmp.Var(in.VarOf(n)).Def, n, memo)
	memo[n] = r
	return r
}

func (in *Instance) alphaPrim(p decomp.Primitive, n *Node, memo map[*Node]*relation.Relation) *relation.Relation {
	switch p := p.(type) {
	case *decomp.Unit:
		// α(t, Γ) = {t}
		return relation.Singleton(n.UnitAt(in, p))
	case *decomp.MapEdge:
		// α({t ↦ v_t'}) = ⋃_t {t} ⋈ α(v_t')
		out := relation.Empty(p.Key.Union(in.dcmp.Var(p.Target).Cover))
		n.MapAt(in, p).Range(func(k relation.Tuple, child *Node) bool {
			sub := relation.Join(relation.Singleton(k), in.alphaNode(child, memo))
			out.UnionWith(padTo(sub, out.Cols()))
			return true
		})
		return out
	case *decomp.Join:
		// α(p1 ⋈ p2) = α(p1) ⋈ α(p2)
		return relation.Join(
			in.alphaPrim(p.Left, n, memo),
			in.alphaPrim(p.Right, n, memo))
	default:
		panic(fmt.Sprintf("instance: unknown primitive %T", p))
	}
}

// padTo asserts that r has exactly the expected columns; the decomposition
// type system guarantees it, and α is the place where a violation would
// surface first, so fail loudly.
func padTo(r *relation.Relation, cols relation.Cols) *relation.Relation {
	if !r.Cols().Equal(cols) {
		panic(fmt.Sprintf("instance: α produced columns %v, want %v", r.Cols(), cols))
	}
	return r
}
