// Package instance implements decomposition instances, the run-time
// counterpart of decompositions (Figure 4 of the paper): rooted DAGs whose
// nodes are objects in memory and whose edges are data structures navigating
// between them.
//
// The package provides the paper's mutation primitives — dempty (New),
// dinsert (Insert), single-tuple dremove (RemoveTuple, used by the engine's
// pattern removal), and in-place dupdate (UpdateInPlace) — together with the
// abstraction function α (Relation) and the well-formedness judgment of
// Figure 5 (CheckWF). Locating nodes always navigates the instance's own
// data structures, never an auxiliary index, so the cost of every operation
// reflects the decomposition exactly as in the paper's generated code.
package instance

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"unsafe"

	"repro/internal/colblock"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
)

// A Node is one object of a decomposition instance: the instance v_t of a
// decomposition variable v for one valuation t of v's bound columns. It holds
// the data of the variable's definition as code words of the instance's
// dictionary lineage: the columns of its unit primitives back to back, at
// offsets the variable's layout fixes, and one container per map primitive.
// The variable is named by its index in the instance's root-first order, so
// a node carries no strings and no boxed values.
//
// Node is only the object's 16-byte header. Every node is allocated
// (allocNode) as one object of its variable's shape, layout.typ: the header,
// then nw unit words, then nm containers — the Go counterpart of the class
// a generated package declares per variable. Words and Map address the tail
// from the header's counts, so a node is one heap object with no slice
// header in it, and a clone cannot share its source's words.
type Node struct {
	vi   uint16 // the variable's walk index
	nw   uint8  // unit words after the header
	nm   uint8  // containers after the unit words
	refs int32  // number of parent map entries pointing at this node

	// epoch is the instance version that allocated or cloned this node.
	// Copy-on-write applies (see cowSpine) skip nodes whose epoch matches
	// the mutating version: those are private to the unpublished version and
	// may be mutated in place, so a multi-tuple operation clones each spine
	// node at most once. Always 0 outside versioned instances.
	epoch uint64
}

// nodeHeader is the size of Node, the offset of a node's first unit word.
const nodeHeader = unsafe.Sizeof(Node{})

// wordSize is the size of one unit word in a node's tail.
const wordSize = unsafe.Sizeof(colblock.Code(0))

// The limits the header's counts put on a decomposition (CheckShape).
const (
	maxVars  = math.MaxUint16
	maxWords = math.MaxUint8
	maxMaps  = math.MaxUint8
)

// words returns the node's unit words, nil for a variable without any, so
// no pointer is ever formed past the end of the object.
func (n *Node) words() []colblock.Code {
	if n.nw == 0 {
		return nil
	}
	return unsafe.Slice((*colblock.Code)(unsafe.Add(unsafe.Pointer(n), nodeHeader)), n.nw)
}

// maps returns the node's containers, nil for a variable without map edges.
func (n *Node) maps() []dstruct.Words[*Node] {
	if n.nm == 0 {
		return nil
	}
	return unsafe.Slice((*dstruct.Words[*Node])(unsafe.Add(unsafe.Pointer(n), nodeHeader+uintptr(n.nw)*wordSize)), n.nm)
}

// layout is where one variable's primitives live in its nodes, in preorder
// of the definition: the units' columns back to back in the nWords unit
// words (unitSlots has each unit's offset) and edge i's container at maps[i].
// typ is the shape of the variable's node objects: the header, then
// [nWords]colblock.Code, then [len(edges)]dstruct.Words[*Node].
type layout struct {
	name   string
	nWords int
	edges  []*decomp.MapEdge
	typ    reflect.Type
}

// nodeType builds the shape of a node with nw unit words and nm containers.
// A zero-length tail field is left out: a struct ending in one is padded so
// that the field's address stays inside the object.
func nodeType(nw, nm int) reflect.Type {
	fields := []reflect.StructField{{Name: "H", Type: reflect.TypeFor[Node]()}}
	if nw > 0 {
		fields = append(fields, reflect.StructField{Name: "W", Type: reflect.ArrayOf(nw, reflect.TypeFor[colblock.Code]())})
	}
	if nm > 0 {
		fields = append(fields, reflect.StructField{Name: "M", Type: reflect.ArrayOf(nm, reflect.TypeFor[dstruct.Words[*Node]]())})
	}
	return reflect.StructOf(fields)
}

// An Instance is one version of a decomposition instance of a particular
// decomposition: the node graph's root, the tuple count and the view onto
// the dictionary, over the lineage every version forked from the same New
// shares. A fork (BeginVersion) copies this header only.
type Instance struct {
	*lineage

	root  *Node
	count int

	// view is this version's window onto the lineage's dictionary:
	// everything interned up to the version's last mutation. Readers of a
	// published version decode through view only; the writer refreshes it
	// after interning (encode).
	view colblock.View

	// ver and cow are the multi-version state. BeginVersion forks an
	// unpublished successor with cow set: its apply phases clone every
	// pre-existing node they would write (cowSpine) instead of logging undo
	// entries, so a failure simply abandons the fork and the predecessor —
	// still published, never touched — stays live. ver counts forks along
	// the lineage and stamps Node.epoch.
	ver uint64
	cow bool

	// torn records a failed rollback (see Torn).
	torn bool

	// CleanupEmpty controls whether removal deallocates maps that become
	// empty (§4.5: "Our implementation deallocates empty maps to minimize
	// space consumption"). It is a flag so the design choice can be
	// ablated; leaving garbage nodes behind never affects the represented
	// relation, only memory.
	CleanupEmpty bool

	// met and tr are the observability hooks (see SetObs): the two-phase
	// mutation counters and span events of package obs. Both nil by
	// default — the disabled cost is one nil check per phase.
	met *obs.Metrics
	tr  obs.Tracer
}

// lineage is what every version forked from one New shares and no fork
// changes: the decomposition and its precomputed tables, the dictionary,
// the fault plane, and the single writer's scratch buffers.
type lineage struct {
	dcmp    *decomp.Decomp
	fds     fd.Set
	layouts []layout // by walk index (root first)

	// dict interns the values that do not fit a code word inline — one table
	// for the whole lineage of versions; each version reads it through its
	// own view.
	dict *colblock.Dict

	// cols is the relation's columns in order: the positions a mutation's
	// encoded tuple (mutScratch.codes) is indexed by.
	cols []string

	// inPlaceBlocked is the union of all map-edge key columns and all
	// variables' bound columns: an update may run in place iff it touches
	// none of them. Precomputed so CanUpdateInPlace is one set intersection
	// on the hot update path instead of a walk over the decomposition.
	inPlaceBlocked relation.Cols

	// edgeSlots maps a map edge to its container's index in its variable's
	// nodes and unitSlots a unit to its word offset (a primitive belongs to
	// exactly one variable), so MapAt and UnitAt are a single map lookup.
	edgeSlots map[*decomp.MapEdge]int
	unitSlots map[*decomp.Unit]int

	// updWalk is the precomputed node-location walk of the two-phase
	// mutations and of Contains: the bindings in root-first order with their
	// in-edges (indices into linkEdges) and units, so the per-operation walk
	// allocates nothing and recomputes nothing.
	updWalk []updVar

	// edgeKeyCols is the union of all map-edge key columns: a tuple binding
	// all of them can drive the UpdateInPlace walk on its own, without being
	// the full stored tuple.
	edgeKeyCols relation.Cols

	// linkEdges is every map edge resolved to walk indices and slots, in
	// d.Edges() order (the index a plan's edge memo, mutScratch.edges, is
	// kept by); rmBreaks is its subset crossing the full-column cut (parent
	// above, target below) and rmXvars the walk indices above the cut, in
	// topological order. All three are precomputed so the two-phase
	// mutations neither allocate per-variable maps nor re-resolve edges.
	linkEdges []linkEdge
	rmBreaks  []linkEdge
	rmXvars   []int

	// scr and undo are reusable per-mutation buffers: scr holds the encoded
	// tuple and the writes the planning pass computed, undo the
	// compensations of the apply pass. Mutations are serialized by the engine
	// tiers across every version of the lineage, so one of each suffices.
	scr  mutScratch
	undo undoLog

	// fi is the fault-injection plane captured at construction time, nil in
	// every production configuration.
	fi *faultinject.Plane
}

// linkEdge is one map edge resolved against the walk: the walk indices of
// its parent and target variables, the container's index in the parent node
// and where the key's columns sit in an encoded tuple. single records that
// the parent's bound columns determine the key (∆ ⊢ Bound(parent) → Key):
// while the FDs hold, such a container holds at most one key.
type linkEdge struct {
	parent int
	target int
	slot   int
	keyPos []int
	single bool
	e      *decomp.MapEdge
}

// unitWrite and linkWrite are planned writes: the output of a planning pass,
// the input of an apply pass. Nodes are referenced by walk index, not by
// pointer: a copy-on-write apply replaces scr.nodes entries with clones
// between planning and writing, and index-based plans follow the
// replacement for free.
type unitWrite struct {
	wi      int  // walk index of the node written
	off, n  int  // the words written: n of them from off on
	src     int  // the new words are scr.wbuf[src : src+n]
	logUndo bool // existing node: log the previous words for rollback
}

type linkWrite struct {
	pi   int // walk index of the parent node holding the map
	slot int
	ci   int   // walk index of the child the entry points at
	key  []int // positions of the key's columns in scr.codes
}

// mutScratch is the reusable planning buffer. codes is the caller's tuple
// encoded once, by column position; every key and unit of the mutation is
// taken from it by precomputed position. nodes and fresh are indexed by walk
// position (nodes[i] is the located or allocated node of variable i,
// fresh[i] whether this plan allocated it), edges by linkEdges index (the
// memo of child), units and links the writes in apply order, wbuf the words
// the unit writes carry, and key the scratch a lookup's key words are
// gathered into.
type mutScratch struct {
	codes []colblock.Code
	key   []colblock.Code
	nodes []*Node
	fresh []bool
	edges []*Node
	units []unitWrite
	wbuf  []colblock.Code
	links []linkWrite
}

// noEdge is the edge memo's answer for a parent holding no entry under the
// tuple's key; nil means not looked up yet. It is never linked anywhere.
var noEdge = &Node{}

func (s *mutScratch) reset(nVars, nEdges int) {
	if cap(s.nodes) < nVars {
		s.nodes = make([]*Node, nVars)
		s.fresh = make([]bool, nVars)
	}
	s.nodes = s.nodes[:nVars]
	s.fresh = s.fresh[:nVars]
	clear(s.nodes)
	clear(s.fresh)
	if cap(s.edges) < nEdges {
		s.edges = make([]*Node, nEdges)
	}
	s.edges = s.edges[:nEdges]
	clear(s.edges)
	s.units = s.units[:0]
	s.wbuf = s.wbuf[:0]
	s.links = s.links[:0]
}

// lookup finds the child of n, in container slot, under the key the encoded
// tuple holds at the column positions pos.
func (in *Instance) lookup(n *Node, slot int, pos []int) (*Node, bool) {
	if len(pos) == 1 {
		return n.Map(slot).Get1(in.view, in.scr.codes[pos[0]])
	}
	return n.Map(slot).Get(in.view, in.scr.keyAt(pos))
}

// child returns the node linkEdges[k]'s container in the plan's parent node
// holds under the encoded tuple's key, nil when it holds none; a parent the
// plan allocated holds nothing. Each edge's container is searched at most
// once per plan: the answer is kept in scr.edges, so the walk that locates
// the nodes, the link or containment checks after it and cowSpine's redirect
// share one search.
func (in *Instance) child(k int) *Node {
	scr := &in.scr
	c := scr.edges[k]
	if c == nil {
		le := &in.linkEdges[k]
		c = noEdge
		if !scr.fresh[le.parent] {
			if n, ok := in.lookup(scr.nodes[le.parent], le.slot, le.keyPos); ok {
				c = n
			}
		}
		scr.edges[k] = c
	}
	if c == noEdge {
		return nil
	}
	return c
}

// locate finds the node of the walk's i-th variable for the encoded tuple
// through the first in-edge, from an already located parent, that holds it;
// nil when none does.
func (in *Instance) locate(i int) *Node {
	for _, k := range in.updWalk[i].in {
		if c := in.child(k); c != nil {
			return c
		}
	}
	return nil
}

// keyAt gathers the codes at the column positions pos into the key scratch.
func (s *mutScratch) keyAt(pos []int) []colblock.Code {
	k := s.key[:0]
	for _, p := range pos {
		k = append(k, s.codes[p])
	}
	return k
}

// CheckShape reports whether every variable of d fits a node header: at most
// 255 unit columns and 255 map edges per variable, at most 65,535 variables.
func CheckShape(d *decomp.Decomp) error {
	if n := len(d.Bindings()); n > maxVars {
		return fmt.Errorf("instance: decomposition has %d variables, a node header holds at most %d", n, maxVars)
	}
	for _, b := range d.Bindings() {
		words, maps := 0, 0
		decomp.WalkPrims(b.Def, func(p decomp.Primitive) {
			switch p := p.(type) {
			case *decomp.Unit:
				words += p.Cols.Len()
			case *decomp.MapEdge:
				maps++
			}
		})
		if words > maxWords {
			return fmt.Errorf("instance: variable %s has %d unit columns, a node holds at most %d", b.Var, words, maxWords)
		}
		if maps > maxMaps {
			return fmt.Errorf("instance: variable %s has %d map edges, a node holds at most %d", b.Var, maps, maxMaps)
		}
	}
	return nil
}

// New implements dempty: it creates an instance representing the empty
// relation, with a dictionary of its own. The decomposition should already
// have been checked adequate for the caller's columns and FDs, and its shape
// with CheckShape — New panics on a shape the node header cannot hold; New
// only needs the FDs (for cuts).
func New(d *decomp.Decomp, fds fd.Set) *Instance {
	if err := CheckShape(d); err != nil {
		panic(err)
	}
	inst := &Instance{
		lineage: &lineage{
			dcmp:      d,
			fds:       fds,
			dict:      colblock.NewDict(),
			cols:      d.Cols().Names(),
			edgeSlots: make(map[*decomp.MapEdge]int),
			unitSlots: make(map[*decomp.Unit]int),
			fi:        faultinject.Active(),
		},
		CleanupEmpty: true,
	}
	inst.view = inst.dict.View()
	inst.scr.codes = make([]colblock.Code, len(inst.cols))
	inst.scr.key = make([]colblock.Code, 0, len(inst.cols))
	for _, e := range d.Edges() {
		inst.edgeKeyCols = inst.edgeKeyCols.Union(e.Key)
	}
	inst.inPlaceBlocked = inst.edgeKeyCols
	for _, b := range d.Bindings() {
		inst.inPlaceBlocked = inst.inPlaceBlocked.Union(b.Bound)
	}
	inst.buildWalk(d.Cut(fds, d.Cols()))
	inst.root = inst.newNode(0)
	return inst
}

// updVar is one step of the precomputed node-location walk shared by the
// two-phase mutations (Insert, RemoveTuple, UpdateInPlace) and Contains.
type updVar struct {
	name  string    // the variable, for error messages
	in    []int     // in-edges to try when locating this variable's node, as linkEdges indices
	units []updUnit // units of this variable
	below bool      // below the full-column cut: a removal writes no node of it
}

type updUnit struct {
	off int   // the unit's first word in the node
	pos []int // positions of the unit's columns in an encoded tuple
	u   *decomp.Unit
}

// positions resolves column names to their positions in in.cols.
func (in *Instance) positions(c relation.Cols) []int {
	pos := make([]int, 0, c.Len())
	for _, name := range c.Names() {
		i, _ := slices.BinarySearch(in.cols, name)
		pos = append(pos, i)
	}
	return pos
}

// buildWalk lays out every variable's nodes and precomputes the mutation
// walk against the full-column cut (Y = true). Layout is a pure function of
// the decomposition (primitives in preorder, variables root first), so an
// index resolved against one instance is valid for every instance of the
// same decomposition.
func (in *Instance) buildWalk(fullCut map[string]bool) {
	topo := in.dcmp.TopoDown()
	idx := make(map[string]int, len(topo))
	in.layouts = make([]layout, len(topo))
	in.updWalk = make([]updVar, len(topo))
	for i, b := range topo {
		idx[b.Var] = i
		l, w := &in.layouts[i], &in.updWalk[i]
		l.name, w.name = b.Var, b.Var
		decomp.WalkPrims(b.Def, func(p decomp.Primitive) {
			switch p := p.(type) {
			case *decomp.Unit:
				in.unitSlots[p] = l.nWords
				if !p.Cols.IsEmpty() { // an empty unit has no word to write or compare
					w.units = append(w.units, updUnit{off: l.nWords, pos: in.positions(p.Cols), u: p})
				}
				l.nWords += p.Cols.Len()
			case *decomp.MapEdge:
				in.edgeSlots[p] = len(l.edges)
				l.edges = append(l.edges, p)
			}
		})
		l.typ = nodeType(l.nWords, len(l.edges))
	}
	edgeIdx := make(map[*decomp.MapEdge]int)
	for k, e := range in.dcmp.Edges() {
		edgeIdx[e] = k
		le := linkEdge{parent: idx[e.Parent], target: idx[e.Target], slot: in.edgeSlots[e], keyPos: in.positions(e.Key),
			single: in.fds.Implies(in.dcmp.Var(e.Parent).Bound, e.Key), e: e}
		in.linkEdges = append(in.linkEdges, le)
		if !fullCut[e.Parent] && fullCut[e.Target] {
			in.rmBreaks = append(in.rmBreaks, le)
		}
	}
	for i, b := range topo {
		w := &in.updWalk[i]
		for _, e := range in.dcmp.InEdges(b.Var) {
			w.in = append(w.in, edgeIdx[e])
		}
		w.below = fullCut[b.Var]
		if !w.below {
			in.rmXvars = append(in.rmXvars, i)
		}
	}
}

// SetObs attaches (or, with nils, detaches) the observability hooks: m
// receives the two-phase mutation counters (MutValidates / MutApplies /
// MutRollbacks) and t the phase span events. The engine's SetMetrics and
// SetTracer call this; set hooks before sharing the instance, like the
// engine's other configuration flags.
//
//relvet:role=config
func (in *Instance) SetObs(m *obs.Metrics, t obs.Tracer) {
	in.met = m
	in.tr = t
}

// Decomp returns the instance's decomposition.
func (in *Instance) Decomp() *decomp.Decomp { return in.dcmp }

// EdgeKeyCols returns the union of every map edge's key columns. A tuple
// binding all of them can serve as the locator argument of UpdateInPlace.
func (in *Instance) EdgeKeyCols() relation.Cols { return in.edgeKeyCols }

// FDs returns the dependency set the instance maintains.
func (in *Instance) FDs() fd.Set { return in.fds }

// Root returns the root node.
func (in *Instance) Root() *Node { return in.root }

// Len returns the number of tuples represented.
func (in *Instance) Len() int { return in.count }

// allocNode allocates a zeroed node of the walk's vi-th variable, stamped
// with the instance's version: the one allocation site of nodes.
func (in *Instance) allocNode(vi int) *Node {
	l := &in.layouts[vi]
	n := (*Node)(reflect.New(l.typ).UnsafePointer())
	n.vi, n.nw, n.nm, n.epoch = uint16(vi), uint8(l.nWords), uint8(len(l.edges)), in.ver
	return n
}

// newNode allocates a node of the walk's vi-th variable: every unit word
// Unset, every container empty.
func (in *Instance) newNode(vi int) *Node {
	n := in.allocNode(vi)
	w := n.words()
	for i := range w {
		w[i] = colblock.Unset
	}
	ms := n.maps()
	for i, e := range in.layouts[vi].edges {
		ms[i] = dstruct.NewWords[*Node](e.DS, e.Key.Len())
	}
	return n
}

// View returns this version's view of the lineage's dictionary: what the
// codes of the instance's nodes and containers decode through.
func (in *Instance) View() colblock.View { return in.view }

// VarOf returns the decomposition variable n is an instance of.
func (in *Instance) VarOf(n *Node) string { return in.layouts[n.vi].name }

// Words returns the node's unit columns as stored: the unit SlotOfUnit
// resolved to offset off holds its columns, in column order, from words[off]
// on, each colblock.Unset until a mutation has filled the unit. The caller
// must not modify them. It is nil for a variable without unit columns.
func (n *Node) Words() []colblock.Code { return n.words() }

// Map returns the container at an index resolved by SlotOfEdge.
func (n *Node) Map(i int) dstruct.Words[*Node] { return n.maps()[i] }

// MapAt returns the data structure of node n for map edge e as a map from
// key tuples, boxing per call; the storage paths use Map. It panics if e is
// not a primitive of n's variable; plans are validated before execution.
func (n *Node) MapAt(in *Instance, e *decomp.MapEdge) dstruct.Map[*Node] {
	return dstruct.Boxed(n.Map(in.edgeSlots[e]), e.Key.Names(), in.dict, &in.view)
}

// UnitAt returns the tuple of node n for unit primitive u, boxed from the
// node's words: the unit's full tuple, or the columns written so far — none,
// for a root unit before the first insert.
func (n *Node) UnitAt(in *Instance, u *decomp.Unit) relation.Tuple {
	return in.boxUnit(n.words()[in.unitSlots[u]:], u)
}

// boxUnit boxes the leading words of w as a tuple over u's columns, skipping
// Unset ones.
func (in *Instance) boxUnit(w []colblock.Code, u *decomp.Unit) relation.Tuple {
	names := u.Cols.Names()
	vals := make([]value.Value, 0, len(names))
	for i := range names {
		if w[i] != colblock.Unset {
			vals = append(vals, in.view.Decode(w[i]))
		}
	}
	switch len(vals) {
	case len(names):
		return relation.SortedTuple(names, vals)
	case 0:
		return relation.Tuple{}
	}
	set := make([]string, 0, len(vals))
	for i, name := range names {
		if w[i] != colblock.Unset {
			set = append(set, name)
		}
	}
	return relation.SortedTuple(set, vals)
}

// SlotOfEdge resolves map edge e to the index of its container in its
// variable's nodes (Node.Map), for query programs that capture the index
// once instead of re-resolving the edge on every row. Layout is a pure
// function of the decomposition, so an index resolved against one instance
// is valid for every instance of the same decomposition — which is what lets
// shards share one compiled program.
func (in *Instance) SlotOfEdge(e *decomp.MapEdge) (int, bool) {
	i, ok := in.edgeSlots[e]
	return i, ok
}

// SlotOfUnit resolves unit primitive u to the offset of its first column in
// its variable's nodes (Node.Words); see SlotOfEdge for the cross-instance
// validity guarantee.
func (in *Instance) SlotOfUnit(u *decomp.Unit) (int, bool) {
	i, ok := in.unitSlots[u]
	return i, ok
}

// Refs returns the node's reference count (incoming edge instances); the
// root is held alive by the instance itself.
func (n *Node) Refs() int { return int(n.refs) }

// find encodes the full tuple t into scr.codes without interning and
// reports whether every value has a code. A value with none was never
// stored, so no tuple holding it is represented.
func (in *Instance) find(t relation.Tuple) bool {
	for i := range in.scr.codes {
		c, ok := in.view.Find(t.ValueAt(i))
		if !ok {
			return false
		}
		in.scr.codes[i] = c
	}
	return true
}

// encode encodes the full tuple t into scr.codes, interning the values that
// need it, and moves the instance's view past them.
func (in *Instance) encode(t relation.Tuple) {
	for i := range in.scr.codes {
		in.scr.codes[i] = in.code(t.ValueAt(i))
	}
}

// code returns v's code, interning it when it has none.
func (in *Instance) code(v value.Value) colblock.Code {
	c, ok := colblock.EncodeInline(v)
	if !ok {
		c = in.dict.Encode(v)
		in.view = in.dict.View()
	}
	return c
}

// Contains reports whether the full tuple t is represented. It navigates
// the decomposition's own data structures: every map on the way is keyed by
// columns of t, so the walk is pure lookups. It encodes t into the mutation
// scratch and leaves its walk there as RemoveTuple's plan, so like the
// mutations it belongs to the instance's one writer.
func (in *Instance) Contains(t relation.Tuple) bool {
	return t.Dom().Equal(in.dcmp.Cols()) && in.find(t) && in.present()
}

// present is the containment walk over the tuple scr.codes holds: it
// locates the node of every variable, root first, compares each node's units
// with the tuple and checks that every edge leads to the node located for
// its target. Each side of a join is determined by the tuple's columns
// (adequacy), so checking every edge this way is exact. Every container on
// the way is searched once, and the answers stay in the edge memo for the
// removal that follows.
func (in *Instance) present() bool {
	scr := &in.scr
	scr.reset(len(in.updWalk), len(in.linkEdges))
	for i := range in.updWalk {
		w := &in.updWalk[i]
		n := in.root
		if i > 0 {
			if n = in.locate(i); n == nil {
				return false
			}
		}
		scr.nodes[i] = n
		words := n.words()
		for j := range w.units {
			uu := &w.units[j]
			for k, p := range uu.pos {
				if words[uu.off+k] != scr.codes[p] {
					return false
				}
			}
		}
	}
	for k := range in.linkEdges {
		if in.child(k) != scr.nodes[in.linkEdges[k].target] {
			return false
		}
	}
	return true
}

// isEmptyNode reports whether node n currently represents the empty
// relation: some map in every required position is empty. A unit is never
// empty; a join is empty if either side is.
func (in *Instance) isEmptyNode(n *Node) bool {
	return in.isEmptyPrim(in.dcmp.Var(in.VarOf(n)).Def, n)
}

func (in *Instance) isEmptyPrim(p decomp.Primitive, n *Node) bool {
	switch p := p.(type) {
	case *decomp.Unit:
		return false
	case *decomp.MapEdge:
		return n.Map(in.edgeSlots[p]).Len() == 0
	case *decomp.Join:
		return in.isEmptyPrim(p.Left, n) || in.isEmptyPrim(p.Right, n)
	default:
		panic(fmt.Sprintf("instance: unknown primitive %T", p))
	}
}
