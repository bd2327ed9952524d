// Package relvet201 is the cowwrite corpus: stores into published
// relation versions outside the sanctioned fork/clone/config roles.
package relvet201

import (
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
