// Package relvet201 is the cowwrite corpus: stores into published
// relation versions outside the sanctioned fork/clone/config roles.
package relvet201

import (
	"slices"
	"sync/atomic"

	"repro/internal/core"
)

// box is a minimal publication cell in the engine's shape.
type box struct {
	cur atomic.Pointer[core.Relation]
}

//relvet:role=publish
func install(b *box, r *core.Relation) { b.cur.Store(r) }

// view hands out the published version; callers may read it only.
func view(b *box) *core.Relation { return b.cur.Load() }

// relOf is a second-level accessor; publishedness flows through it.
func relOf(b *box) *core.Relation { return view(b) }

// ref returns its argument; publishedness flows through the alias.
func ref(r *core.Relation) *core.Relation { return r }

// fork starts a new version as a value copy of the published one, the
// engine's beginVersion shape.
//
//relvet:role=fork
func fork(b *box) *core.Relation {
	c := *b.cur.Load()
	return &c
}

// configure is the pre-share configuration escape hatch (the engine's
// SetMetrics/SetTracer contract).
//
//relvet:role=config
func configure(r *core.Relation) { r.CheckFDs = true }

// poke mutates its argument; passing published state here is the bug.
func poke(r *core.Relation) { r.CheckFDs = false }

// bump mutates transitively, through poke.
func bump(r *core.Relation) { poke(r) }

func trigger(b *box) {
	b.cur.Load().CheckFDs = true // want relvet201
}

func triggerVar(b *box) {
	r := b.cur.Load()
	r.CheckFDs = true // want relvet201
}

func triggerInterproc(b *box) {
	poke(view(b)) // want relvet201
}

func triggerChain(b *box) {
	r := view(b)
	bump(r) // want relvet201
}

func triggerTwoLevel(b *box) {
	relOf(b).CheckFDs = true // want relvet201
}

func triggerAlias(b *box) {
	ref(view(b)).CheckFDs = true // want relvet201
}

// load returns the published version and a status, the engine's cell.load
// shape.
func load(b *box) (*core.Relation, error) { return b.cur.Load(), nil }

// explain returns a fresh relation; the error it passes on is load's
// status, which does not make it an accessor of the published version.
func explain(b *box) (*core.Relation, error) {
	r, err := load(b)
	if err != nil {
		return nil, err
	}
	return &core.Relation{CheckFDs: r.CheckFDs}, nil
}

func triggerTuple(b *box) {
	r, err := load(b)
	if err != nil {
		return
	}
	r.CheckFDs = true // want relvet201
}

func nearMissTupleErr(b *box) {
	r, err := explain(b)
	if err != nil {
		return
	}
	r.CheckFDs = true // explain's own relation, never published
}

func nearMissFork(b *box) {
	f := fork(b) // a fork-role result is unpublished until installed
	f.CheckFDs = true
	install(b, f)
}

func nearMissConfig(b *box) {
	configure(b.cur.Load()) // config role: the pre-share contract
}

func nearMissLocal() {
	var r core.Relation
	r.CheckFDs = true // a fresh local value was never published
}

func nearMissRead(b *box) int {
	return view(b).Len() // reading published state is the point of MVCC
}

// node is an instance node in the engine's shape: unit columns as words,
// children behind a slice.
type node struct {
	words []uint64
	kids  []*node
	epoch uint64
}

// cowNodeAliased clones a node for a fork but shares the source's word
// array: the fork's first unit write would land in the published node.
//
//relvet:role=clone
func cowNodeAliased(n *node, epoch uint64) *node {
	return &node{words: n.words, kids: slices.Clone(n.kids), epoch: epoch} // want relvet201
}

// cowNodeLate forgets the copy on the assignment path.
//
//relvet:role=clone
func cowNodeLate(n *node, epoch uint64) *node {
	c := &node{epoch: epoch}
	c.words = n.words // want relvet201
	c.kids = append([]*node(nil), n.kids...)
	return c
}

// cowNode copies the words with the node, the engine's cowNode shape.
//
//relvet:role=clone
func cowNode(n *node, epoch uint64) *node {
	return &node{words: slices.Clone(n.words), kids: slices.Clone(n.kids), epoch: epoch}
}

// shareWhole copies the struct whole, the dstruct Clone shape: sharing
// under a flag the structure checks before it writes is not aliasing a
// field into a fresh copy.
//
//relvet:role=clone
func shareWhole(n *node) *node {
	c := *n
	return &c
}

// rebind is no clone: what an unannotated function does with its own
// values is not this rule's business.
func rebind(n *node) *node { return &node{words: n.words} }
