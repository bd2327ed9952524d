// Package relvet202 is the lockfreeread corpus: locks and engine-state
// writes reachable from role=read snapshot entry points.
package relvet202

import (
	"sync"
	"sync/atomic"

	"repro/internal/colblock"
	"repro/internal/core"
	"repro/internal/relation"
)

// cell mirrors the engine's writer cell: a writer mutex beside the
// published pointer.
type cell struct {
	wmu  sync.Mutex
	cur  atomic.Pointer[core.Relation]
	hits int
}

//relvet:role=publish
func install(c *cell, r *core.Relation) { c.cur.Store(r) }

//relvet:role=read
func queryLocked(c *cell, pat relation.Tuple) ([]relation.Tuple, error) {
	c.wmu.Lock() // want relvet202
	defer c.wmu.Unlock()
	return c.cur.Load().Query(pat, nil)
}

//relvet:role=read
func lenVia(c *cell) int { return lockedLen(c) }

func lockedLen(c *cell) int {
	c.wmu.Lock() // want relvet202
	defer c.wmu.Unlock()
	return c.cur.Load().Len()
}

//relvet:role=read
func countingQuery(c *cell, pat relation.Tuple) ([]relation.Tuple, error) {
	record(c)
	return c.cur.Load().Query(pat, nil)
}

func record(c *cell) {
	c.hits++ // want relvet202
}

var auxMu sync.Mutex

//relvet:role=read
func lenAux(c *cell) int {
	auxMu.Lock() // want relvet202
	auxMu.Unlock()
	return c.cur.Load().Len()
}

// badFill holds the cachefill role, but cell mutexes are never exempt:
// blocking on the writer lock is exactly what snapshot reads must not do.
//
//relvet:role=cachefill
func badFill(c *cell) {
	c.wmu.Lock() // want relvet202
	defer c.wmu.Unlock()
}

//relvet:role=read
func lenBadFill(c *cell) int {
	badFill(c)
	return c.cur.Load().Len()
}

var memoMu sync.Mutex
var memo = map[string]int{}

// fill takes its own memoization lock, the sanctioned cachefill shape
// (the engine's plan-cache fill path).
//
//relvet:role=cachefill
func fill(k string) int {
	memoMu.Lock()
	defer memoMu.Unlock()
	memo[k]++
	return memo[k]
}

//relvet:role=read
func lenMemo(c *cell) int {
	_ = fill("k")
	return c.cur.Load().Len()
}

// mutate locks the writer mutex off the read closure — the writers'
// side of the protocol, not a finding.
func mutate(c *cell, r *core.Relation) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	install(c, r)
}

//relvet:role=read
func lenPure(c *cell) int { return c.cur.Load().Len() }

// table is an append-only interning table in the shape of the lineage
// dictionary: one writer appends, readers hold the header they captured.
type table struct{ vals []string }

// header is what a version captures of the table.
type header struct{ vals []string }

// intern appends on the writer's side.
//
//relvet:role=writer
func (t *table) intern(s string) int { // want relvet202
	t.vals = append(t.vals, s)
	return len(t.vals) - 1
}

// live reads the growing header: safe for the writer only.
//
//relvet:role=writer
func (t *table) live() header { return header{t.vals} } // want relvet202

func (h header) decode(i int) string { return h.vals[i] }

// versioned is a published version's reader-side state: the table for its
// writer, the captured header for everyone else.
type versioned struct {
	c   cell
	tab *table
	hdr header
}

//relvet:role=read
func decodeInterning(v *versioned, s string) string {
	return v.hdr.decode(v.tab.intern(s)) // a read that interns
}

//relvet:role=read
func decodeLive(v *versioned, i int) string {
	return liveHeader(v).decode(i) // a read through the header the writer is growing
}

func liveHeader(v *versioned) header { return v.tab.live() }

//relvet:role=read
func decodeCaptured(v *versioned, i int) string {
	return v.hdr.decode(i) // near miss: the header captured at publication
}

// lineage mirrors what every version of an instance shares by pointer and
// no fork copies: here the single writer's mutation scratch.
type lineage struct{ scr []int }

// reset rewinds the scratch for the next mutation.
func (l *lineage) reset() {
	l.scr = l.scr[:0] // want relvet202
}

// scratchLen only reads the scratch.
func (l *lineage) scratchLen() int { return len(l.scr) }

// fork mirrors an instance header: per-version state (here the dictionary
// its readers decode through) over the embedded lineage, whose fields and
// methods it promotes.
type fork struct {
	*lineage
	dict *colblock.Dict
}

//relvet:role=read
func lenScribbling(f *fork) int {
	f.scr = append(f.scr, 0) // want relvet202
	return len(f.scr)
}

//relvet:role=read
func lenResetting(f *fork) int {
	f.reset() // the write is in the promoted method, flagged there
	return f.scratchLen()
}

//relvet:role=read
func lenOfScratch(f *fork) int {
	return f.scratchLen() + len(f.scr) // near miss: reads through the lineage only
}

// commit interns on the writer's side of the protocol, off every read
// closure — not a finding.
func commit(v *versioned, s string) {
	v.c.wmu.Lock()
	defer v.c.wmu.Unlock()
	v.hdr = header{v.tab.vals[:v.tab.intern(s)+1]}
}
