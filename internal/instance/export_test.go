package instance

import (
	"unsafe"

	"repro/internal/colblock"
)

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
			s.Entries += n.Map(i).Len()
			stats[e.ID] = s
			n.Map(i).Range(func(_ []colblock.Code, child *Node) bool {
				visit(child)
				return true
			})
		}
	}
	visit(in.root)
	return stats
}

// NodeShape is one variable's node object, as its layout builds it and as a
// node of it is addressed: the counts in the header, the size and tail-field
// offsets of the reflect-built shape (0 for a field the shape leaves out),
// and the offsets words() and maps() compute on a freshly allocated node (0
// when they return nil).
type NodeShape struct {
	Var                  string
	Words, Maps          int
	Size, Align          uintptr
	TypeWords, TypeMaps  uintptr
	NodeWords, NodeMaps  uintptr
	HeaderSize, HeaderAt uintptr
}

// NodeShapes returns the shape of every variable's nodes, root first.
func (in *Instance) NodeShapes() []NodeShape {
	out := make([]NodeShape, len(in.layouts))
	for vi := range in.layouts {
		l := &in.layouts[vi]
		n := in.newNode(vi)
		s := NodeShape{Var: l.name, Words: int(n.nw), Maps: int(n.nm), Size: l.typ.Size(), Align: uintptr(l.typ.Align()), HeaderSize: nodeHeader}
		if f, ok := l.typ.FieldByName("H"); ok {
			s.HeaderAt = f.Offset
		}
		if f, ok := l.typ.FieldByName("W"); ok {
			s.TypeWords = f.Offset
		}
		if f, ok := l.typ.FieldByName("M"); ok {
			s.TypeMaps = f.Offset
		}
		base := uintptr(unsafe.Pointer(n))
		if w := n.words(); w != nil {
			s.NodeWords = uintptr(unsafe.Pointer(&w[0])) - base
		}
		if m := n.maps(); m != nil {
			s.NodeMaps = uintptr(unsafe.Pointer(&m[0])) - base
		}
		out[vi] = s
	}
	return out
}
