package instance

import "repro/internal/colblock"

// EdgeStatsByMapWalk is EdgeStats as a walk that remembers every node it
// enters, leaves included: the reference the pruned walk must agree with.
func (in *Instance) EdgeStatsByMapWalk() map[int]EdgeStat {
	stats := make(map[int]EdgeStat, len(in.dcmp.Edges()))
	seen := make(map[*Node]bool)
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for i, e := range in.layouts[n.vi].edges {
			s := stats[e.ID]
			s.Parents++
			s.Entries += n.maps[i].Len()
			stats[e.ID] = s
			n.maps[i].Range(func(_ []colblock.Code, child *Node) bool {
				visit(child)
				return true
			})
		}
	}
	visit(in.root)
	return stats
}
