package instance

import (
	"repro/internal/dstruct"
	"repro/internal/relation"
)

// AppendMapEntries bulk-extracts the map at slot i into caller-owned
// slices, in Range order: the batch-extraction path the vectorized
// execution tier (plan.CompileBatch) scans instance levels through. It
// delegates to the dstruct Entries capability when the underlying
// structure provides it (all built-in kinds do) and degrades to a Range
// sweep otherwise, so it never allocates beyond growing ks and children.
func (n *Node) AppendMapEntries(i int, ks []relation.Tuple, children []*Node) ([]relation.Tuple, []*Node) {
	return dstruct.AppendEntries(n.slots[i].m, ks, children)
}

// AppendMapEntriesBetween is AppendMapEntries restricted to the entries
// whose keys fall in [lo, hi] — a seek on an ordered structure, a filter on
// the others (dstruct.AppendEntriesBetween): how a vectorized range query
// scans the level keyed by its range column.
func (n *Node) AppendMapEntriesBetween(i int, lo, hi relation.Tuple, ks []relation.Tuple, children []*Node) ([]relation.Tuple, []*Node) {
	return dstruct.AppendEntriesBetween(n.slots[i].m, lo, hi, ks, children)
}
