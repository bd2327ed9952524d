package dstruct

// Clone contract tests: a clone and its receiver are fully independent —
// mutations on either side, in any order, interleaved with structural
// events (hash-table growth, AVL rebalancing, vector regrowth, list chunk
// copies, merges and drops), never leak into the other. The randomized
// differential drives both sides against reference oracles.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/colblock"
	"repro/internal/relation"
)

// refMap is the oracle: values by key, plus the keys in insertion order (an
// overwrite keeps its position), which is the order a list must iterate in.
type refMap struct {
	vals  map[int64]int
	order []int64
}

func newRefMap() *refMap { return &refMap{vals: map[int64]int{}} }

func (r *refMap) put(k int64, v int) {
	if _, ok := r.vals[k]; !ok {
		r.order = append(r.order, k)
	}
	r.vals[k] = v
}

func (r *refMap) delete(k int64) bool {
	if _, ok := r.vals[k]; !ok {
		return false
	}
	delete(r.vals, k)
	for i, o := range r.order {
		if o == k {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return true
}

func (r *refMap) clone() *refMap {
	c := &refMap{vals: make(map[int64]int, len(r.vals)), order: append([]int64(nil), r.order...)}
	for k, v := range r.vals {
		c.vals[k] = v
	}
	return c
}

// refOf captures a map's contents as an oracle for later comparison.
func refOf(m Map[int]) *refMap {
	r := newRefMap()
	m.Range(func(k relation.Tuple, v int) bool {
		r.put(k.ValueAt(0).Int(), v)
		return true
	})
	if m.Kind() == SListKind { // Range ran newest-first
		slices.Reverse(r.order)
	}
	return r
}

// diffContents describes how m differs from want, or returns "": the same
// entries under Range and Len for every kind; for the list kinds also
// Range's order (insertion order for dlist, newest-first for slist), the
// same order from AppendEntries, and the chunk directory's invariants.
func diffContents(m Map[int], want *refMap) string {
	got, bad := diffGot[:0], ""
	m.Range(func(k relation.Tuple, v int) bool {
		key := k.ValueAt(0).Int()
		if w, ok := want.vals[key]; !ok || w != v {
			bad = fmt.Sprintf("key %d = %d, want %d (present %v)", key, v, w, ok)
		}
		got = append(got, key)
		return bad == ""
	})
	diffGot = got
	if bad != "" {
		return bad
	}
	if len(got) != len(want.vals) || m.Len() != len(want.vals) {
		return fmt.Sprintf("%d entries (Len %d), want %d", len(got), m.Len(), len(want.vals))
	}
	l := listOf(m)
	if l == nil {
		return ""
	}
	if !l.checkInvariant() {
		return fmt.Sprintf("chunk directory invariant broken at %d entries", m.Len())
	}
	diffKeys, diffVals = wordsOf(m).AppendEntries(diffKeys[:0], diffVals[:0])
	for i, key := range got {
		w := want.order[i]
		if m.Kind() == SListKind {
			w = want.order[len(got)-1-i]
		}
		if key != w || diffKeys[i] != code1(w)[0] {
			return fmt.Sprintf("entry %d is key %d under Range and %v under AppendEntries, want %d", i, key, diffKeys[i], w)
		}
	}
	return ""
}

// wordsOf returns the container under a stand-alone Map.
func wordsOf(m Map[int]) Words[int] {
	switch b := m.(type) {
	case *boxed[int]:
		return b.w
	case boxedRanger[int]:
		return b.w
	}
	return nil
}

// wordsDict returns the dictionary of a stand-alone Map.
func wordsDict(m Map[int]) *colblock.Dict {
	switch b := m.(type) {
	case *boxed[int]:
		return b.d
	case boxedRanger[int]:
		return b.d
	}
	return nil
}

// listOf returns the chunked body of a list kind, nil for any other.
func listOf(m Map[int]) *list[int] {
	switch l := wordsOf(m).(type) {
	case *DList[int]:
		return &l.list
	case *SList[int]:
		return &l.list
	}
	return nil
}

// diffContents runs per live copy per step of the differential; its buffers
// are reused across calls.
var (
	diffGot  []int64
	diffKeys []colblock.Code
	diffVals []int
)

func sameContents(t *testing.T, kind Kind, label string, m Map[int], want *refMap) {
	t.Helper()
	if d := diffContents(m, want); d != "" {
		t.Fatalf("%s/%s: %s", kind, label, d)
	}
}

// cloneSpans returns the key-range scales the clone tests run kind at: every
// kind at 1, the list kinds also at a scale whose key range fills ten
// chunks, so directory copies, chunk copies, merges and dropped chunks all
// happen with clones alive, and the hash table at one whose copies grow to
// 16 chunks of buckets, then empty and refill, under clones.
func cloneSpans(kind Kind) []int64 {
	switch {
	case slices.Contains(listKinds, kind):
		return []int64{1, 10 * listChunkCap / 64}
	case kind == HTableKind:
		return []int64{1, 16 * htChunk / 64}
	}
	return []int64{1}
}

// TestCloneIndependence mutates the receiver after cloning and the clone
// after cloning, in both directions, and checks neither side observes the
// other's writes.
func TestCloneIndependence(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, s := range cloneSpans(kind) {
			m := New[int](kind)
			for i := int64(0); i < 64*s; i++ {
				m.Put(key1(i), int(i))
			}
			before := refOf(m)

			c := m.Clone()
			if c.Kind() != kind {
				t.Fatalf("%s: clone Kind = %s", kind, c.Kind())
			}
			sameContents(t, kind, "clone/initial", c, before)

			// Mutate the receiver: overwrites, deletes, and inserts that force
			// structural churn (growth, rebalancing) over shared nodes.
			for i := int64(0); i < 32*s; i++ {
				m.Put(key1(i), int(1000+i))
			}
			for i := 32 * s; i < 48*s; i++ {
				m.Delete(key1(i))
			}
			for i := 64 * s; i < 160*s; i++ {
				m.Put(key1(i), int(i))
			}
			sameContents(t, kind, "clone/after-receiver-writes", c, before)

			// Mutate the clone; the receiver's state must hold too.
			afterRecv := refOf(m)
			for i := 48 * s; i < 64*s; i++ {
				c.Delete(key1(i))
			}
			for i := 200 * s; i < 264*s; i++ {
				c.Put(key1(i), int(i))
			}
			c.Put(key1(0), -1)
			sameContents(t, kind, "receiver/after-clone-writes", m, afterRecv)

			// And the clone's own writes landed.
			if v, ok := c.Get(key1(0)); !ok || v != -1 {
				t.Fatalf("%s: clone lost its own overwrite: %d %v", kind, v, ok)
			}
			if v, ok := c.GetByValue(key1(263 * s).ValueAt(0)); !ok || v != int(263*s) {
				t.Fatalf("%s: clone lost its last insert under GetByValue: %d %v", kind, v, ok)
			}
			if _, ok := c.Get(key1(50 * s)); ok {
				t.Fatalf("%s: clone still holds a key it deleted", kind)
			}
		}
	}
}

// TestCloneChainsDifferential chains clones (clone of a clone, repeated
// re-cloning of a mutated receiver) under a randomized schedule, comparing
// every live copy against its own oracle at each step. Each copy alternates
// between an insert-heavy mix, until it holds three fifths of the key
// range, and a delete-heavy one, until it is nearly empty, so structures
// both grow and thin out while shared (lists fill chunks, then merge and
// drop them); once eight copies are live a new clone replaces a random one,
// so copies keep being re-shared to the end. A step is s operations at
// scale s, which takes a copy through several such cycles at either scale.
func TestCloneChainsDifferential(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, s := range cloneSpans(kind) {
			rng := rand.New(rand.NewSource(7))
			type pair struct {
				m         Map[int]
				o         *refMap
				shrinking bool
			}
			span := int(100 * s)
			live := []*pair{{m: New[int](kind), o: newRefMap()}}
			for step := 0; step < int(2000*s); step++ {
				p := live[rng.Intn(len(live))]
				switch n := len(p.o.order); {
				case n >= 3*span/5:
					p.shrinking = true
				case n <= span/20:
					p.shrinking = false
				}
				switch op := rng.Intn(10); {
				case op < 2, !p.shrinking && op < 6:
					for i := int64(0); i < s; i++ {
						k, v := int64(rng.Intn(span)), rng.Intn(1<<20)
						p.m.Put(key1(k), v)
						p.o.put(k, v)
					}
				case op < 8:
					for i := int64(0); i < s; i++ {
						k := int64(rng.Intn(span))
						if len(p.o.order) > 0 && rng.Intn(4) > 0 {
							k = p.o.order[rng.Intn(len(p.o.order))]
						}
						if del, want := p.m.Delete(key1(k)), p.o.delete(k); del != want {
							t.Fatalf("%s step %d: Delete = %v, oracle %v", kind, step, del, want)
						}
					}
				default:
					c := &pair{m: p.m.Clone(), o: p.o.clone(), shrinking: p.shrinking}
					if len(live) < 8 {
						live = append(live, c)
					} else {
						live[rng.Intn(len(live))] = c
					}
				}
				for i, p := range live {
					if d := diffContents(p.m, p.o); d != "" {
						t.Fatalf("%s step %d copy %d: %s", kind, step, i, d)
					}
				}
			}
		}
	}
}

// firstWriteCost measures what a clone of a kind table of n entries plus
// the first delete and the first put on the clone allocate: objects and
// bytes per run.
func firstWriteCost(kind Kind, n int64) (allocs, bytes float64) {
	var vw colblock.View
	m := NewWords[int](kind, 1)
	for i := int64(0); i < n; i++ {
		m.Put(vw, code1(i), int(i))
	}
	del, put := code1(n/2), code1(n)
	op := func() {
		c := m.Clone()
		c.Delete(vw, del)
		c.Put(vw, put, 0)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return testing.AllocsPerRun(runs, op), float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestListFirstWriteAfterCloneIsCheap pins what the chunked list body is
// for: a clone plus the first delete and the first insert on it allocate a
// handful of objects however long the list is, and bytes that grow with the
// chunk directory (n/listChunkCap headers), not with the entries: at 4096
// entries the two directory copies plus the two chunks written, nowhere near
// the 64 KB of key words and values an eager copy would move.
func TestListFirstWriteAfterCloneIsCheap(t *testing.T) {
	for _, kind := range listKinds {
		_, small := firstWriteCost(kind, 512)
		allocs, large := firstWriteCost(kind, 4096)
		if allocs > 8 {
			t.Errorf("%s: clone + delete + put on 4096 entries allocates %.0f objects, want at most 8", kind, allocs)
		}
		dir := float64(4096 / listChunkCap * sizeOf[listChunk[int]]())
		if chunk := float64(2 * listChunkCap * 16); large > 1.5*(dir+2*chunk) || large >= 8*small {
			t.Errorf("%s: clone + delete + put allocates %.0f B at 4096 entries (%.0f B at 512), want about a %.0f B directory and two %.0f B chunks", kind, large, small, dir, chunk)
		}
	}
}

// TestHTableFirstWriteAfterCloneIsCheap pins what the chunked bucket
// directory is for: a clone plus the first delete and the first put on it
// copy the directory (one entry per htChunk buckets), the one or two chunks
// written and the chains changed, not the bucket array: at 4096 entries a
// 4 KB directory and two 128-byte chunks, where a flat array moves 32 KB.
func TestHTableFirstWriteAfterCloneIsCheap(t *testing.T) {
	allocs, bytes := firstWriteCost(HTableKind, 4096)
	if raceEnabled {
		t.Skipf("race detector: %.0f objects, %.0f B not asserted", allocs, bytes)
	}
	if allocs > 8 {
		t.Errorf("clone + delete + put on 4096 entries allocates %.0f objects, want at most 8", allocs)
	}
	if bytes > 8<<10 {
		t.Errorf("clone + delete + put on 4096 entries allocates %.0f B, want at most 8 KB", bytes)
	}
}

// htableOf returns the hash table under a stand-alone Map.
func htableOf(m Map[int]) *HTable[int] { return wordsOf(m).(*HTable[int]) }

// TestHTableOwnershipTransitions pins each copy-on-write transition of the
// chunked bucket directory, checking every live copy against its oracle
// after each step and the directory entries for what the step copied.
func TestHTableOwnershipTransitions(t *testing.T) {
	build := func(n int64) (Map[int], *refMap) {
		m, o := New[int](HTableKind), newRefMap()
		for i := int64(0); i < n; i++ {
			m.Put(key1(i), int(i))
			o.put(i, int(i))
		}
		return m, o
	}
	// keyAt returns the first key from `from` on whose bucket in h satisfies
	// ok and which o holds, or, if present is false, does not hold.
	keyAt := func(h *HTable[int], o *refMap, from int64, present bool, ok func(b uint) bool) int64 {
		for k := from; ; k++ {
			if _, in := o.vals[k]; in == present && ok(h.bucket(colblock.Hash(code1(k)))) {
				return k
			}
		}
	}
	same := func(t *testing.T, label string, ms []Map[int], os []*refMap) {
		t.Helper()
		for i := range ms {
			sameContents(t, HTableKind, fmt.Sprintf("%s/copy %d", label, i), ms[i], os[i])
		}
	}
	bit := func(b uint) uint16 { return 1 << (b % htChunk) }

	t.Run("put into an unowned chunk", func(t *testing.T) {
		m, o := build(200) // 256 buckets in 16 chunks
		c, co := m.Clone(), o.clone()
		h, hc := htableOf(m), htableOf(c)
		k0 := keyAt(h, o, 0, true, func(b uint) bool { return b/htChunk == 0 })
		m.Delete(key1(k0))
		o.delete(k0)
		k := keyAt(h, o, 200, false, func(b uint) bool { return b/htChunk != 0 && h.head(b) != nil })
		b := h.bucket(colblock.Hash(code1(k)))
		if d := h.dir[b/htChunk]; d.own || d.mine != 0 {
			t.Fatalf("chunk %d owned before its first write: own %v mine %#x", b/htChunk, d.own, d.mine)
		}
		sibChunk, sibHead := hc.dir[b/htChunk].c, hc.head(b)
		m.Put(key1(k), -1)
		o.put(k, -1)
		if d := h.dir[b/htChunk]; !d.own || d.mine&bit(b) != 0 || d.c == sibChunk {
			t.Fatalf("put copied chunk %v, chain %v", d.c != sibChunk, d.mine&bit(b) != 0)
		}
		if h.head(b).next != sibHead {
			t.Fatal("linking in front copied the shared chain")
		}
		if hc.dir[b/htChunk].c != sibChunk || hc.head(b) != sibHead {
			t.Fatal("put moved the sibling's chunk or chain")
		}
		same(t, "after put", []Map[int]{m, c}, []*refMap{o, co})

		// Overwriting a key of that chain copies the chain, whole.
		j := keyAt(h, o, 0, true, func(b2 uint) bool { return b2 == b })
		m.Put(key1(j), -2)
		o.put(j, -2)
		if h.dir[b/htChunk].mine&bit(b) == 0 || h.head(b).next == sibHead {
			t.Fatal("overwrite in a shared chain did not copy the chain")
		}
		same(t, "after overwrite", []Map[int]{m, c}, []*refMap{o, co})
	})

	t.Run("delete empties a shared chain", func(t *testing.T) {
		m, o := build(200)
		h := htableOf(m)
		k := keyAt(h, o, 0, true, func(b uint) bool { return h.head(b) != nil && h.head(b).next == nil })
		b := h.bucket(colblock.Hash(code1(k)))
		c, co := m.Clone(), o.clone()
		hc := htableOf(c)
		c.Delete(key1(k))
		co.delete(k)
		if hc.head(b) != nil || h.head(b) == nil {
			t.Fatalf("delete of a one-node shared chain: clone's bucket %v, receiver's %v", hc.head(b), h.head(b))
		}
		same(t, "after delete", []Map[int]{m, c}, []*refMap{o, co})
		m.Put(key1(k), -1)
		o.put(k, -1)
		j := keyAt(hc, co, 200, false, func(b2 uint) bool { return b2 == b })
		c.Put(key1(j), -2)
		co.put(j, -2)
		same(t, "after refill", []Map[int]{m, c}, []*refMap{o, co})
	})

	t.Run("grow while the directory is shared", func(t *testing.T) {
		// 128 keys in the low 64 of 128 buckets: the table is full, the
		// next insert grows it, and the chains it splits are two long on
		// average, so a relink in place would cut the clone's chains.
		m, o := New[int](HTableKind), newRefMap()
		for k := int64(0); len(o.vals) < 128; k++ {
			if colblock.Hash(code1(k))%128 < 64 {
				m.Put(key1(k), int(k))
				o.put(k, int(k))
			}
		}
		c, co := m.Clone(), o.clone()
		h, hc := htableOf(m), htableOf(c)
		m.Put(key1(-1), -1)
		o.put(-1, -1)
		if len(h.dir) != 16 || len(hc.dir) != 8 || h.shared || !hc.shared {
			t.Fatalf("after grow: %d and %d chunks, shared %v and %v; want 16 and 8, false and true", len(h.dir), len(hc.dir), h.shared, hc.shared)
		}
		same(t, "after grow", []Map[int]{m, c}, []*refMap{o, co})
		for i := int64(0); i < 64; i++ {
			m.Delete(key1(2 * i))
			o.delete(2 * i)
			c.Put(key1(2*i), -int(i))
			co.put(2*i, -int(i))
		}
		same(t, "after churn", []Map[int]{m, c}, []*refMap{o, co})
	})

	t.Run("clone of a copied directory", func(t *testing.T) {
		m, o := build(200)
		c1, o1 := m.Clone(), o.clone()
		h := htableOf(m)
		m.Delete(key1(0)) // m copies the directory and owns a chunk
		o.delete(0)
		b := h.bucket(colblock.Hash(code1(0)))
		if !h.dir[b/htChunk].own || h.shared {
			t.Fatal("delete did not take the directory and chunk")
		}
		c2, o2 := m.Clone(), o.clone()
		k := keyAt(h, o, 0, true, func(b2 uint) bool { return b2/htChunk == b/htChunk })
		m.Put(key1(k), -1) // m's chunk is shared again: copied again
		o.put(k, -1)
		if h.dir[b/htChunk].c == htableOf(c2).dir[b/htChunk].c {
			t.Fatal("write to a chunk the clone shares landed in place")
		}
		c2.Put(key1(1000), 1000)
		o2.put(1000, 1000)
		c2.Delete(key1(k))
		o2.delete(k)
		same(t, "after writes", []Map[int]{m, c1, c2}, []*refMap{o, o1, o2})
	})
}

// TestCloneKeepsCapabilities checks that clones remain usable through the
// optional fast-path interfaces plan execution discovers by type assertion.
func TestCloneKeepsCapabilities(t *testing.T) {
	for _, kind := range AllKinds() {
		m := New[int](kind)
		for i := int64(0); i < 16; i++ {
			m.Put(key1(i), int(i))
		}
		c := m.Clone()
		if _, ok := m.(Ranger[int]); ok {
			r, still := c.(Ranger[int])
			if !still {
				t.Fatalf("%s: clone lost RangeBetween", kind)
			}
			sum := 0
			r.RangeBetween(key1(4), key1(7), func(k relation.Tuple, v int) bool {
				sum += v
				return true
			})
			if sum != 4+5+6+7 {
				t.Fatalf("%s: clone RangeBetween sum = %d", kind, sum)
			}
		}
	}
}
