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
	"repro/internal/race"
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

// listOf returns the body of a list kind, nil for any other.
func listOf(m Map[int]) *list[int] { return bareList(wordsOf(m)) }

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

// cloneSpans returns the key-range scales the clone tests run kind at, in
// sixteenths: every kind at 16 (the base key range), the list kinds also at
// 1 and 2, whose key ranges keep lists crossing the four-entry boundary of
// the header under live clones — built small and promoted on both sides of
// a Clone, copies cycling between none and seven entries and demoted by the
// Clones taken of them — and at one whose key range fills twenty blocks, so
// directory copies, block copies, merges and dropped blocks all happen with
// clones alive, and the hash table at one whose copies grow to 16 groups
// and more, then empty and refill, under clones.
func cloneSpans(kind Kind) []int64 {
	switch {
	case slices.Contains(listKinds, kind):
		return []int64{1, 2, 16, 16 * 20 * blockSlots / 64}
	case kind == HTableKind:
		return []int64{16, 16 * 16 * blockSlots / 64}
	}
	return []int64{16}
}

// TestCloneIndependence mutates the receiver after cloning and the clone
// after cloning, in both directions, and checks neither side observes the
// other's writes.
func TestCloneIndependence(t *testing.T) {
	for _, kind := range allKinds() {
		for _, s := range cloneSpans(kind) {
			sc := func(x int64) int64 { return x * s / 16 }
			m := New[int](kind)
			for i := int64(0); i < sc(64); i++ {
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
			for i := int64(0); i < sc(32); i++ {
				m.Put(key1(i), int(1000+i))
			}
			for i := sc(32); i < sc(48); i++ {
				m.Delete(key1(i))
			}
			for i := sc(64); i < sc(160); i++ {
				m.Put(key1(i), int(i))
			}
			sameContents(t, kind, "clone/after-receiver-writes", c, before)

			// Mutate the clone; the receiver's state must hold too.
			afterRecv := refOf(m)
			for i := sc(48); i < sc(64); i++ {
				c.Delete(key1(i))
			}
			for i := sc(200); i < sc(264); i++ {
				c.Put(key1(i), int(i))
			}
			c.Put(key1(0), -1)
			sameContents(t, kind, "receiver/after-clone-writes", m, afterRecv)

			// And the clone's own writes landed.
			if v, ok := c.Get(key1(0)); !ok || v != -1 {
				t.Fatalf("%s: clone lost its own overwrite: %d %v", kind, v, ok)
			}
			if last := sc(264) - 1; last > 0 {
				if v, ok := c.GetByValue(key1(last).ValueAt(0)); !ok || v != int(last) {
					t.Fatalf("%s: clone lost its last insert under GetByValue: %d %v", kind, v, ok)
				}
			}
			if _, ok := c.Get(key1(sc(50))); ok && sc(50) > 0 {
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
// so copies keep being re-shared to the end. A step is s/16 operations (at
// least one) at scale s, which takes a copy through several such cycles at
// any scale.
func TestCloneChainsDifferential(t *testing.T) {
	for _, kind := range allKinds() {
		for _, s := range cloneSpans(kind) {
			rng := rand.New(rand.NewSource(7))
			type pair struct {
				m         Map[int]
				o         *refMap
				shrinking bool
			}
			span, per := int(100*s/16), max(s/16, 1)
			live := []*pair{{m: New[int](kind), o: newRefMap()}}
			for step := 0; step < int(2000*s/16); step++ {
				p := live[rng.Intn(len(live))]
				switch n := len(p.o.order); {
				case n >= 3*span/5:
					p.shrinking = true
				case n <= span/20:
					p.shrinking = false
				}
				switch op := rng.Intn(10); {
				case op < 2, !p.shrinking && op < 6:
					for i := int64(0); i < per; i++ {
						k, v := int64(rng.Intn(span)), rng.Intn(1<<20)
						p.m.Put(key1(k), v)
						p.o.put(k, v)
					}
				case op < 8:
					for i := int64(0); i < per; i++ {
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

// firstWrite returns one copy-on-write commit on a kind container of n
// entries: clone it, then delete one entry from the middle of the clone and
// put one new key.
func firstWrite(kind Kind, n int64) func() {
	var vw colblock.View
	m := NewWords[int](kind, 1)
	for i := int64(0); i < n; i++ {
		m.Put(vw, code1(i), int(i))
	}
	del, put := code1(n/2), code1(n)
	return func() {
		c := m.Clone()
		c.Delete(vw, del)
		c.Put(vw, put, 0)
	}
}

// firstWriteCost measures what firstWrite's commit allocates: objects and
// bytes per run.
func firstWriteCost(kind Kind, n int64) (allocs, bytes float64) {
	op := firstWrite(kind, n)
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
// block directory (8 bytes a block), not with the entries: at 4096 entries
// the 112-byte header, one copy of the directory (with room for the block
// the insert appends) and the two blocks written, nowhere near the 64 KB of
// key words and values an eager copy would move.
func TestListFirstWriteAfterCloneIsCheap(t *testing.T) {
	for _, kind := range listKinds {
		allocs, bytes := firstWriteCost(kind, 4096)
		if allocs > 8 {
			t.Errorf("%s: clone + delete + put on 4096 entries allocates %.0f objects, want at most 8", kind, allocs)
		}
		dir := AllocSize((4096/blockSlots + 1) * wordBytes)
		want := float64(AllocSize(sizeOf[list[int]]()) + dir + 2*AllocSize(sizeOf[block[int]]()))
		if bytes > 1.1*want {
			t.Errorf("%s: clone + delete + put on 4096 entries allocates %.0f B, want about %.0f B: the header, a %d B directory and two blocks", kind, bytes, want, dir)
		}
	}
}

// TestFirstWriteCostEveryKind pins what one copy-on-write commit
// (firstWrite: Clone, then the first Delete and the first Put on the clone)
// allocates on every kind at 512 and 4096 entries, objects and bytes, each
// within a tenth of what it measured when pinned. Lists and hash tables copy
// their header, the block directory and the blocks written, so their bytes
// grow by 8 per block of length. The AVL tree copies the two root-to-leaf
// paths written, a few objects more per doubling. The vector and the sorted
// array share their arrays until the first write copies each whole, so their
// bytes follow the length at a constant object count. The skip list's Clone
// is eager: it copies every node, an object per entry and then some.
func TestFirstWriteCostEveryKind(t *testing.T) {
	for _, c := range []struct {
		kind           Kind
		n              int64
		objects, bytes float64
	}{
		{DListKind, 512, 4, 976},
		{DListKind, 4096, 4, 2992},
		{SListKind, 512, 4, 976},
		{SListKind, 4096, 4, 2992},
		{HTableKind, 512, 4, 1136},
		{HTableKind, 4096, 4, 5488},
		{AVLKind, 512, 20, 1122},
		{AVLKind, 4096, 26, 1506},
		{VectorKind, 512, 3, 17713},
		{VectorKind, 4096, 3, 139312},
		{SortedArrKind, 512, 3, 8256},
		{SortedArrKind, 4096, 3, 65600},
		{SkipListKind, 512, 1029, 33480},
		{SkipListKind, 4096, 8197, 263936},
	} {
		objects, bytes := firstWriteCost(c.kind, c.n)
		t.Logf("%s at %d entries: %.0f objects, %.0f B", c.kind, c.n, objects, bytes)
		if !race.Enabled && (objects > 1.1*c.objects || bytes > 1.1*c.bytes) {
			t.Errorf("%s at %d entries: clone + delete + put allocates %.0f objects and %.0f B, want at most %.0f and %.0f", c.kind, c.n, objects, bytes, c.objects, c.bytes)
		}
	}
}

// TestHTableFirstWriteAfterCloneIsCheap pins what the group directory is
// for: a clone plus the first delete and the first put on it copy the
// directory (8 bytes a group) and the one or two groups written, not the
// table: at 4096 entries a 4 KB directory and two 288-byte groups, where an
// eager copy moves every group.
func TestHTableFirstWriteAfterCloneIsCheap(t *testing.T) {
	allocs, bytes := firstWriteCost(HTableKind, 4096)
	if race.Enabled {
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

// homeOf is the group key k's probe starts at in h.
func homeOf(h *HTable[int], k int64) uint {
	return uint(colblock.Hash(code1(k))>>7) & uint(len(h.dir)-1)
}

// slotOfKey returns the group index and slot holding k in h, failing if
// none does.
func slotOfKey(t *testing.T, h *HTable[int], k int64) (uint, int) {
	t.Helper()
	gi, s := h.find(colblock.Hash(code1(k)), code1(k))
	if s < 0 {
		t.Fatalf("key %d not in the table", k)
	}
	return gi, s
}

// groupsDiffer returns the indexes at which two same-length directories
// hold different groups.
func groupsDiffer(a, b []*block[int]) []int {
	var d []int
	for i := range a {
		if a[i] != b[i] {
			d = append(d, i)
		}
	}
	return d
}

// TestHTableSizes pins the two objects a first write copies to their size
// classes: the 48-byte header every Clone copies and the 288-byte group.
func TestHTableSizes(t *testing.T) {
	if h, g := sizeOf[HTable[*int]](), sizeOf[block[*int]](); h != 48 || g != 288 || AllocSize(g) != g {
		t.Errorf("header %d B, group %d B (allocated %d); want 48 and 288", h, g, AllocSize(g))
	}
}

// TestHTableOwnershipTransitions pins each copy-on-write transition of the
// group directory, checking every live copy against its oracle after each
// step and the directories for what the step copied.
func TestHTableOwnershipTransitions(t *testing.T) {
	build := func(n int64) (Map[int], *refMap) {
		m, o := New[int](HTableKind), newRefMap()
		for i := int64(0); i < n; i++ {
			m.Put(key1(i), int(i))
			o.put(i, int(i))
		}
		return m, o
	}
	same := func(t *testing.T, label string, ms []Map[int], os []*refMap) {
		t.Helper()
		for i := range ms {
			sameContents(t, HTableKind, fmt.Sprintf("%s/copy %d", label, i), ms[i], os[i])
		}
	}

	t.Run("overwrite copies exactly one group", func(t *testing.T) {
		m, o := build(200) // 16 groups
		c, co := m.Clone(), o.clone()
		h, hc := htableOf(m), htableOf(c)
		sib := slices.Clone(hc.dir)
		gi, s := slotOfKey(t, h, 7)
		m.Put(key1(7), -1)
		o.put(7, -1)
		if d := groupsDiffer(h.dir, sib); len(d) != 1 || d[0] != int(gi) {
			t.Fatalf("overwrite in group %d copied groups %v", gi, d)
		}
		if h.shared || &h.dir[0] == &hc.dir[0] || h.dir[gi].epoch != h.epoch {
			t.Fatal("overwrite did not take the directory and stamp its group copy")
		}
		if d := groupsDiffer(hc.dir, sib); len(d) != 0 || hc.dir[gi].v[s] != 7 {
			t.Fatalf("overwrite moved the sibling's groups %v", d)
		}
		same(t, "after overwrite", []Map[int]{m, c}, []*refMap{o, co})

		// A second write to that group lands in place; one to another group
		// copies that one only.
		g := h.dir[gi]
		for k := int64(0); k < 200; k++ {
			if gk, _ := slotOfKey(t, h, k); gk == gi && k != 7 {
				m.Put(key1(k), -2)
				o.put(k, -2)
				break
			}
		}
		if h.dir[gi] != g {
			t.Fatal("a write to a group the table owns copied it again")
		}
		k := int64(0)
		for gk, _ := slotOfKey(t, h, k); gk == gi; gk, _ = slotOfKey(t, h, k) {
			k++
		}
		m.Delete(key1(k))
		o.delete(k)
		if d := groupsDiffer(h.dir, sib); len(d) != 2 {
			t.Fatalf("two writes to two groups left groups %v copied", d)
		}
		same(t, "after second group", []Map[int]{m, c}, []*refMap{o, co})
	})

	t.Run("delete leaves a tombstone in a full shared group", func(t *testing.T) {
		// 16 keys homed at group 0 of 2 fill it, and the 17th, homed there
		// too, probes past it to group 1.
		m, o := build(15) // the 15th insert makes it two groups
		h := htableOf(m)
		var keys []int64
		for k := int64(0); len(keys) < 17; k++ {
			if homeOf(h, k) != 0 {
				if _, in := o.vals[k]; in {
					m.Delete(key1(k))
					o.delete(k)
				}
				continue
			}
			keys = append(keys, k)
			m.Put(key1(k), int(k))
			o.put(k, int(k))
		}
		if gi, _ := slotOfKey(t, h, keys[16]); len(h.dir) != 2 || h.dir[0].hasEmpty() || gi != 1 {
			t.Fatalf("setup: %d groups, group 0 full %v, overflow key in group %d", len(h.dir), !h.dir[0].hasEmpty(), gi)
		}
		c, co := m.Clone(), o.clone()
		hc := htableOf(c)
		used := hc.used
		_, s := slotOfKey(t, hc, keys[3])
		c.Delete(key1(keys[3]))
		co.delete(keys[3])
		if hc.dir[0].ctrlAt(s) != ctrlDeleted || hc.used != used || h.dir[0].ctrlAt(s) == ctrlDeleted {
			t.Fatalf("delete in a full shared group: clone's slot %#x, used %d→%d, receiver's slot %#x", hc.dir[0].ctrlAt(s), used, hc.used, h.dir[0].ctrlAt(s))
		}
		if _, ok := c.Get(key1(keys[16])); !ok {
			t.Fatal("the key past the tombstone is lost")
		}
		same(t, "after delete", []Map[int]{m, c}, []*refMap{o, co})

		// A key homed at group 0 reuses the tombstone; a delete in a group
		// with an empty slot leaves it empty.
		k := keys[16] + 1
		for homeOf(hc, k) != 0 {
			k++
		}
		c.Put(key1(k), -1)
		co.put(k, -1)
		if gi, s2 := slotOfKey(t, hc, k); gi != 0 || s2 != s || hc.used != used {
			t.Fatalf("insert past a tombstone went to group %d slot %d (tombstone at slot %d), used %d→%d", gi, s2, s, used, hc.used)
		}
		gi, s := slotOfKey(t, hc, keys[16])
		c.Delete(key1(keys[16]))
		co.delete(keys[16])
		if hc.dir[gi].ctrlAt(s) != ctrlEmpty || hc.used != used-1 {
			t.Fatalf("delete in a group with room: slot %#x, used %d→%d", hc.dir[gi].ctrlAt(s), used, hc.used)
		}
		same(t, "after refill", []Map[int]{m, c}, []*refMap{o, co})
	})

	t.Run("grow while the directory is shared", func(t *testing.T) {
		// 112 keys fill 8 groups to 7/8: the next insert rehashes into 16
		// fresh groups, reading the groups the clone shares.
		m, o := build(112)
		c, co := m.Clone(), o.clone()
		h, hc := htableOf(m), htableOf(c)
		sib := slices.Clone(hc.dir)
		m.Put(key1(-1), -1)
		o.put(-1, -1)
		if len(h.dir) != 16 || len(hc.dir) != 8 || h.shared || !hc.shared {
			t.Fatalf("after grow: %d and %d groups, shared %v and %v; want 16 and 8, false and true", len(h.dir), len(hc.dir), h.shared, hc.shared)
		}
		for i, g := range h.dir {
			if g.epoch != h.epoch || slices.Contains(sib, g) {
				t.Fatalf("group %d after grow is not the table's own", i)
			}
		}
		if d := groupsDiffer(hc.dir, sib); len(d) != 0 {
			t.Fatalf("grow moved the sibling's groups %v", d)
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
		gi, _ := slotOfKey(t, h, 0)
		m.Delete(key1(0)) // m copies the directory and owns a group
		o.delete(0)
		if h.dir[gi].epoch != h.epoch || h.shared {
			t.Fatal("delete did not take the directory and group")
		}
		c2, o2 := m.Clone(), o.clone()
		if h.dir[gi].epoch == h.epoch {
			t.Fatal("a clone left the receiver owning a group it shares")
		}
		k := int64(1)
		for gk, _ := slotOfKey(t, h, k); gk != gi; gk, _ = slotOfKey(t, h, k) {
			k++
		}
		m.Put(key1(k), -1) // m's group is shared again: copied again
		o.put(k, -1)
		if h.dir[gi] == htableOf(c2).dir[gi] || len(groupsDiffer(h.dir, htableOf(c2).dir)) != 1 {
			t.Fatal("write to a group the clone shares landed in place")
		}
		c2.Put(key1(1000), 1000)
		o2.put(1000, 1000)
		c2.Delete(key1(k))
		o2.delete(k)
		same(t, "after writes", []Map[int]{m, c1, c2}, []*refMap{o, o1, o2})
	})
}

// TestHTableTombstoneChurn holds the table's size under deletes and
// re-inserts: at a constant number of entries, 100 rounds of churn never
// grow the directory, and tombstones that fill the table are cleared by a
// rehash at the same size — here on a clone, whose receiver keeps its
// tombstones and contents.
func TestHTableTombstoneChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, o := New[int](HTableKind), newRefMap()
	for i := int64(0); i < 200; i++ {
		m.Put(key1(i), int(i))
		o.put(i, int(i))
	}
	for i := int64(0); i < 200; i += 2 {
		m.Delete(key1(i))
		o.delete(i)
	}
	h := htableOf(m)
	next := int64(200)
	for round := 0; round < 100; round++ {
		for i := 0; i < 20; i++ {
			k := o.order[rng.Intn(len(o.order))]
			m.Delete(key1(k))
			o.delete(k)
			m.Put(key1(next), round)
			o.put(next, round)
			next++
		}
		if len(h.dir) != 16 {
			t.Fatalf("round %d: %d groups at %d entries, want 16", round, len(h.dir), h.n)
		}
		sameContents(t, HTableKind, fmt.Sprintf("round %d", round), m, o)
	}

	// An emptied table of 16 groups: 112 keys homed at group 0 fill the
	// seven groups of its probe sequence, and deleting them leaves 112
	// tombstones.
	m, o = New[int](HTableKind), newRefMap()
	for i := int64(0); i < 113; i++ {
		m.Put(key1(i), 0)
	}
	for i := int64(0); i < 113; i++ {
		m.Delete(key1(i))
	}
	if h = htableOf(m); len(h.dir) != 16 || h.used != 0 {
		t.Fatalf("setup: %d tombstones in %d groups, want none in 16", h.used, len(h.dir))
	}
	next = 113
	var homed []int64
	chain := map[uint]bool{}
	for k := next; len(homed) < 112; k++ {
		if homeOf(h, k) == 0 {
			m.Put(key1(k), 0)
			homed = append(homed, k)
			gi, _ := slotOfKey(t, h, k)
			chain[gi] = true
		}
	}
	for _, k := range homed {
		m.Delete(key1(k))
	}
	if h.n != 0 || h.used != 112 {
		t.Fatalf("setup: %d entries and %d tombstones, want 0 and 112", h.n, h.used-h.n)
	}
	// 112 keys homed at the other groups, round robin, land in empty
	// slots: the table is at 7/8 with half of it tombstones.
	var others []uint
	for g := uint(0); g < 16; g++ {
		if !chain[g] {
			others = append(others, g)
		}
	}
	k := homed[len(homed)-1] + 1
	put := func(m Map[int]) {
		for homeOf(h, k) != others[len(o.vals)%len(others)] {
			k++
		}
		m.Put(key1(k), int(k))
		o.put(k, int(k))
	}
	for len(o.vals) < 112 {
		put(m)
	}
	if h.used != 224 || len(h.dir) != 16 {
		t.Fatalf("setup: %d slots in use of %d groups, want 224 of 16", h.used, len(h.dir))
	}
	c, co := m.Clone(), o.clone()
	hc, before := htableOf(c), slices.Clone(h.dir)
	o = co
	put(c)
	if len(hc.dir) != 16 || hc.used != hc.n || hc.shared {
		t.Fatalf("insert at 7/8 with 112 entries: %d groups, %d tombstones, shared %v; want a same-size rehash", len(hc.dir), hc.used-hc.n, hc.shared)
	}
	if len(groupsDiffer(h.dir, before)) != 0 || h.used != 224 {
		t.Fatal("the clone's rehash changed the receiver")
	}
	sameContents(t, HTableKind, "after same-size rehash", c, co)
}

// TestHTableDeleteDuringRangeOnClone deletes the entry being visited, and
// now and then one not yet visited, during Range on a table just cloned, so
// the first delete copies the directory under the walk: every entry is
// visited once unless deleted first, and the receiver keeps all of them.
func TestHTableDeleteDuringRangeOnClone(t *testing.T) {
	m, o := New[int](HTableKind), newRefMap()
	for i := int64(0); i < 300; i++ {
		m.Put(key1(i), int(i))
		o.put(i, int(i))
	}
	c := m.Clone()
	ks, _ := wordsOf(c).AppendEntries(nil, nil)
	order := make([]int64, len(ks))
	for i, w := range ks {
		order[i] = colblock.View{}.Decode(w).Int()
	}
	var visited []int64
	skipped := map[int64]bool{}
	c.Range(func(k relation.Tuple, _ int) bool {
		key := k.ValueAt(0).Int()
		if skipped[key] {
			t.Fatalf("key %d visited after it was deleted", key)
		}
		visited = append(visited, key)
		c.Delete(k)
		if next := slices.Index(order, key) + 1; len(visited)%7 == 0 && next < len(order) {
			c.Delete(key1(order[next]))
			skipped[order[next]] = true
		}
		return true
	})
	want := slices.DeleteFunc(slices.Clone(order), func(k int64) bool { return skipped[k] })
	if !slices.Equal(visited, want) || c.Len() != 0 {
		t.Fatalf("Range visited %d entries (want %d), %d left", len(visited), len(want), c.Len())
	}
	sameContents(t, HTableKind, "receiver", m, o)
}

// TestHTableArity2Differential runs wideKeyDifferential on a hash table of
// two-word keys.
func TestHTableArity2Differential(t *testing.T) { wideKeyDifferential(t, HTableKind, 2) }

// TestListWideKeyDifferential runs wideKeyDifferential on both list kinds at
// arity 2 (the scheduler's {ns, pid}, compared by find's two-word case) and
// arity 3 (the general case), at lengths of up to twenty blocks.
func TestListWideKeyDifferential(t *testing.T) {
	for _, kind := range listKinds {
		for _, arity := range []int{2, 3} {
			wideKeyDifferential(t, kind, arity)
		}
	}
}

// wideKeyDifferential drives a kind container of arity-word keys and its
// clones through a randomized schedule of puts, deletes and clones,
// comparing every live copy against its oracle after each step. Key k's
// first word is k%13, shared by a thirteenth of the keys, so finding a key
// depends on its later words; the third word, if any, is k%5.
func wideKeyDifferential(t *testing.T, kind Kind, arity int) {
	t.Helper()
	var vw colblock.View
	words := func(k int64) []colblock.Code {
		return append(append(code1(k%13), code1(k/13)...), code1(k%5)...)[:arity]
	}
	// diff walks a copy against its oracle and, when lookup is set, looks
	// every key up in it.
	diff := func(w Words[int], o *refMap, lookup bool) string {
		n := 0
		bad := ""
		w.Range(func(kw []colblock.Code, v int) bool {
			k := vw.Decode(kw[0]).Int() + 13*vw.Decode(kw[1]).Int()
			if want, ok := o.vals[k]; !ok || want != v || !slices.Equal(kw, words(k)) {
				bad = fmt.Sprintf("key %d = %d, want %d (present %v)", k, v, want, ok)
				return false
			}
			n++
			return true
		})
		if bad == "" && (n != len(o.vals) || w.Len() != n) {
			bad = fmt.Sprintf("%d entries (Len %d), want %d", n, w.Len(), len(o.vals))
		}
		for k, v := range o.vals {
			if !lookup || bad != "" {
				break
			}
			if got, ok := w.Get(vw, words(k)); !ok || got != v {
				bad = fmt.Sprintf("Get(%d) = %d, %v, want %d", k, got, ok, v)
			}
		}
		if l := bareList(w); bad == "" && l != nil && !l.checkInvariant() {
			bad = fmt.Sprintf("list invariant broken at %d entries", w.Len())
		}
		return bad
	}
	rng := rand.New(rand.NewSource(11))
	type pair struct {
		w Words[int]
		o *refMap
	}
	live := []*pair{{NewWords[int](kind, arity), newRefMap()}}
	for step := 0; step < 3000; step++ {
		p := live[rng.Intn(len(live))]
		switch op := rng.Intn(10); {
		case op < 6:
			k, v := int64(rng.Intn(400)), rng.Intn(1<<20)
			p.w.Put(vw, words(k), v)
			p.o.put(k, v)
		case op < 9:
			k := int64(rng.Intn(400))
			_, del := p.w.Delete(vw, words(k))
			if want := p.o.delete(k); del != want {
				t.Fatalf("%s arity %d step %d: Delete = %v, oracle %v", kind, arity, step, del, want)
			}
		default:
			c := &pair{p.w.Clone(), p.o.clone()}
			if len(live) < 6 {
				live = append(live, c)
			} else {
				live[rng.Intn(len(live))] = c
			}
		}
		// Every hash table copy is looked up key by key, since Range skips
		// empty and tombstone slots alike and cannot see a shared group's
		// control bytes go wrong; a list's Get is the scan Range already
		// made, so only the copy the step wrote is looked up.
		for i, q := range live {
			if d := diff(q.w, q.o, q == p || kind == HTableKind); d != "" {
				t.Fatalf("%s arity %d step %d copy %d: %s", kind, arity, step, i, d)
			}
		}
	}
}

// TestCloneKeepsCapabilities checks that clones remain usable through the
// optional fast-path interfaces plan execution discovers by type assertion.
func TestCloneKeepsCapabilities(t *testing.T) {
	for _, kind := range allKinds() {
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
