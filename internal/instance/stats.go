package instance

import (
	"repro/internal/colblock"
	"repro/internal/dstruct"
)

// EdgeStat aggregates profiling counts for one map edge of the
// decomposition across a whole instance: how many parent node instances
// exist and how many entries their maps hold in total. The ratio is the
// paper's count c(v1, v2), the expected number of instances of the edge
// outgoing from an instance of its parent (§4.3), which the query planner's
// cost estimator consumes.
type EdgeStat struct {
	Parents int // instances of the edge's parent variable
	Entries int // total map entries across those instances
}

// Fanout returns Entries/Parents, defaulting to 1 for unseen edges.
func (s EdgeStat) Fanout() float64 {
	if s.Parents == 0 || s.Entries == 0 {
		return 1
	}
	return float64(s.Entries) / float64(s.Parents)
}

// EdgeStats profiles the instance, returning per-edge statistics keyed by
// edge ID. This is the "recorded as part of a profiling run" option of
// §4.3. The walk does not enter a node whose variable has no edges — a leaf
// has nothing to profile — and remembers only the nodes more than one map
// entry points at: any other is reached once.
func (in *Instance) EdgeStats() map[int]EdgeStat {
	counts := make([]EdgeStat, len(in.dcmp.Edges())) // by edge ID
	seen := make(map[*Node]bool)
	var visit func(n *Node)
	visit = func(n *Node) {
		edges := in.layouts[n.vi].edges
		if len(edges) == 0 {
			return
		}
		if n.refs > 1 {
			if seen[n] {
				return
			}
			seen[n] = true
		}
		for i, e := range edges {
			counts[e.ID].Parents++
			m := n.Map(i)
			counts[e.ID].Entries += m.Len()
			m.Range(func(_ []colblock.Code, child *Node) bool {
				visit(child)
				return true
			})
		}
	}
	visit(in.root)
	stats := make(map[int]EdgeStat, len(counts))
	for id, s := range counts {
		if s.Parents > 0 {
			stats[id] = s
		}
	}
	return stats
}

// NodeCount returns the number of reachable node instances, a memory-side
// metric used by the sharing ablation (decomposition 5 vs 9 differ exactly
// in how many nodes they allocate).
func (in *Instance) NodeCount() int {
	seen := make(map[*Node]bool)
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, m := range n.maps() {
			m.Range(func(_ []colblock.Code, child *Node) bool {
				visit(child)
				return true
			})
		}
	}
	visit(in.root)
	return len(seen)
}

// Stats is the heap an instance holds, by what holds it, in bytes as the
// allocator hands them out (dstruct.AllocSize): counts of objects times
// their sizes, so the split can be read without a heap profile and sums to
// what a heap measurement of the instance sees.
type Stats struct {
	Tuples int // tuples represented
	Nodes  int // reachable node instances

	NodeHeaders        int // the node objects but their unit words: headers, containers' interface words, size-class slack
	UnitWords          int // the nodes' unit columns, held in the node objects
	ContainerEntries   int // what holds key words and child pointers (dstruct.Footprint.Entries)
	ContainerOverhead  int // container headers, block directories, towers
	Dictionary         int // the lineage's interned values and their index
	DictionaryInterned int // values interned over the lineage's life; none is ever reclaimed
}

// Bytes is the sum of the categories.
func (s Stats) Bytes() int {
	return s.NodeHeaders + s.UnitWords + s.ContainerEntries + s.ContainerOverhead + s.Dictionary
}

// Stats walks the instance and accounts for its resident heap. A shared
// node is counted once. The dictionary is the lineage's, so it is counted in
// full whichever version is asked.
func (in *Instance) Stats() Stats {
	st := Stats{Tuples: in.count, Dictionary: in.dict.Bytes(), DictionaryInterned: in.dict.Len()}
	seen := make(map[*Node]bool)
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		st.Nodes++
		words := int(n.nw) * int(wordSize)
		st.NodeHeaders += dstruct.AllocSize(int(in.layouts[n.vi].typ.Size())) - words
		st.UnitWords += words
		for _, m := range n.maps() {
			fp := m.Footprint()
			st.ContainerEntries += fp.Entries
			st.ContainerOverhead += fp.Overhead
			m.Range(func(_ []colblock.Code, child *Node) bool {
				visit(child)
				return true
			})
		}
	}
	visit(in.root)
	return st
}
