// Package interproc is the unit-test fixture for the interprocedural
// summary layer: one function per summary shape the tests pin down.
package interproc

import (
	"sync/atomic"

	"repro/internal/core"
)

type box struct {
	cur atomic.Pointer[core.Relation]
}

// view returns the published version: ReturnsPublished.
func view(b *box) *core.Relation { return b.cur.Load() }

// same is a pure alias: ReturnsParam[0].
func same(r *core.Relation) *core.Relation { return r }

// poke stores through its parameter directly: MutatesParam[0].
func poke(r *core.Relation) { *r = core.Relation{} }

// pokeVia mutates only through a callee, with the argument laundered
// through an alias: MutatesParam[0] by propagation.
func pokeVia(r *core.Relation) { poke(same(r)) }

// fork copies the published version by value; the role (and the copy)
// makes its result a fresh fork, so ReturnsPublished must stay false.
//
//relvet:role=fork
func fork(b *box) *core.Relation {
	c := *b.cur.Load()
	return &c
}

// configure mutates its parameter, sanctioned by the role; callers must
// not inherit MutatesParam through it.
//
//relvet:role=config
func configure(r *core.Relation) { *r = core.Relation{} }

// applyConfig calls only the role-exempt mutator: no MutatesParam.
func applyConfig(r *core.Relation) { configure(r) }

// top → mid → leaf is the Reach/PathTo chain.
func top(b *box) { mid(b) }

func mid(b *box) { leaf(b) }

func leaf(b *box) int { return view(b).Len() }
