package dstruct

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/colblock"
	"repro/internal/relation"
)

// code1 is the one-word key holding the integer v.
func code1(v int64) []colblock.Code {
	c, _ := colblock.InlineInt(v)
	return []colblock.Code{c}
}

func key1(v int64) relation.Tuple { return relation.NewTuple(relation.BindInt("k", v)) }

func key2(a, b int64) relation.Tuple {
	return relation.NewTuple(relation.BindInt("a", a), relation.BindInt("b", b))
}

func strKey(s string) relation.Tuple { return relation.NewTuple(relation.BindString("k", s)) }

// kindsFor returns the kinds usable with the keys produced by keyGen. The
// vector only accepts single integer columns.
func kindsFor(intSingle bool) []Kind {
	if intSingle {
		return AllKinds()
	}
	var ks []Kind
	for _, k := range AllKinds() {
		if !k.IntKeyedOnly() {
			ks = append(ks, k)
		}
	}
	return ks
}

func TestEmptyMaps(t *testing.T) {
	for _, kind := range AllKinds() {
		m := New[int](kind)
		if m.Len() != 0 {
			t.Errorf("%s: empty Len = %d", kind, m.Len())
		}
		if _, ok := m.Get(key1(1)); ok {
			t.Errorf("%s: Get on empty found a value", kind)
		}
		if m.Delete(key1(1)) {
			t.Errorf("%s: Delete on empty reported success", kind)
		}
		m.Range(func(relation.Tuple, int) bool {
			t.Errorf("%s: Range on empty visited an entry", kind)
			return false
		})
		if m.Kind() != kind {
			t.Errorf("Kind() = %s, want %s", m.Kind(), kind)
		}
	}
}

func TestPutGetDelete(t *testing.T) {
	for _, kind := range AllKinds() {
		m := New[string](kind)
		m.Put(key1(1), "one")
		m.Put(key1(2), "two")
		m.Put(key1(1), "uno") // replace
		if m.Len() != 2 {
			t.Errorf("%s: Len = %d, want 2", kind, m.Len())
		}
		if v, ok := m.Get(key1(1)); !ok || v != "uno" {
			t.Errorf("%s: Get(1) = %q, %v", kind, v, ok)
		}
		if !m.Delete(key1(1)) {
			t.Errorf("%s: Delete(1) failed", kind)
		}
		if m.Delete(key1(1)) {
			t.Errorf("%s: double Delete succeeded", kind)
		}
		if _, ok := m.Get(key1(1)); ok {
			t.Errorf("%s: Get after Delete found value", kind)
		}
		if m.Len() != 1 {
			t.Errorf("%s: Len after delete = %d", kind, m.Len())
		}
	}
}

func TestCompositeKeys(t *testing.T) {
	for _, kind := range kindsFor(false) {
		m := New[int](kind)
		m.Put(key2(1, 2), 12)
		m.Put(key2(2, 1), 21)
		if v, _ := m.Get(key2(1, 2)); v != 12 {
			t.Errorf("%s: composite Get = %d", kind, v)
		}
		if v, _ := m.Get(key2(2, 1)); v != 21 {
			t.Errorf("%s: composite Get = %d", kind, v)
		}
	}
}

func TestStringKeys(t *testing.T) {
	for _, kind := range kindsFor(false) {
		m := New[int](kind)
		m.Put(strKey("alpha"), 1)
		m.Put(strKey("beta"), 2)
		if v, ok := m.Get(strKey("alpha")); !ok || v != 1 {
			t.Errorf("%s: string key Get = %d, %v", kind, v, ok)
		}
	}
}

// TestLookupsInternNothing: Get, GetByValue and Delete of a string the map
// never held miss without growing the map's dictionary — only Put interns.
func TestLookupsInternNothing(t *testing.T) {
	for _, kind := range kindsFor(false) {
		m := New[int](kind)
		m.Put(strKey("alpha"), 1)
		d := wordsDict(m)
		if d.Len() != 1 {
			t.Fatalf("%s: one string put, %d interned", kind, d.Len())
		}
		if _, ok := m.Get(strKey("ghost")); ok {
			t.Errorf("%s: Get found a key never put", kind)
		}
		if _, ok := m.GetByValue(strKey("ghost").ValueAt(0)); ok {
			t.Errorf("%s: GetByValue found a key never put", kind)
		}
		if m.Delete(strKey("ghost")) {
			t.Errorf("%s: Delete removed a key never put", kind)
		}
		if d.Len() != 1 {
			t.Errorf("%s: lookups interned %d values", kind, d.Len()-1)
		}
		if v, ok := m.GetByValue(strKey("alpha").ValueAt(0)); !ok || v != 1 {
			t.Errorf("%s: GetByValue(alpha) = %d, %v", kind, v, ok)
		}
	}
}

// TestAgainstReference drives every structure with a random operation
// sequence and compares against a plain Go map oracle after each step.
func TestAgainstReference(t *testing.T) {
	for _, kind := range AllKinds() {
		t.Run(string(kind), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(42))
			m := New[int](kind)
			ref := make(map[int64]int)
			for step := 0; step < 3000; step++ {
				k := int64(rnd.Intn(60))
				switch rnd.Intn(3) {
				case 0:
					v := rnd.Intn(1000)
					m.Put(key1(k), v)
					ref[k] = v
				case 1:
					got := m.Delete(key1(k))
					_, want := ref[k]
					if got != want {
						t.Fatalf("step %d: Delete(%d) = %v, want %v", step, k, got, want)
					}
					delete(ref, k)
				default:
					got, ok := m.Get(key1(k))
					want, wok := ref[k]
					if ok != wok || (ok && got != want) {
						t.Fatalf("step %d: Get(%d) = %d,%v want %d,%v", step, k, got, ok, want, wok)
					}
				}
				if m.Len() != len(ref) {
					t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(ref))
				}
			}
			// Final full-content check via Range.
			seen := make(map[int64]int)
			m.Range(func(k relation.Tuple, v int) bool {
				seen[k.MustGet("k").Int()] = v
				return true
			})
			if len(seen) != len(ref) {
				t.Fatalf("Range visited %d entries, want %d", len(seen), len(ref))
			}
			for k, v := range ref {
				if seen[k] != v {
					t.Fatalf("Range content mismatch at %d: %d vs %d", k, seen[k], v)
				}
			}
		})
	}
}

func TestOrderedIteration(t *testing.T) {
	for _, kind := range AllKinds() {
		if !kind.Ordered() {
			continue
		}
		m := New[int](kind)
		perm := rand.New(rand.NewSource(7)).Perm(100)
		for _, v := range perm {
			m.Put(key1(int64(v)), v)
		}
		var got []int64
		m.Range(func(k relation.Tuple, _ int) bool {
			got = append(got, k.MustGet("k").Int())
			return true
		})
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Errorf("%s: Range order not sorted: %v", kind, got[:10])
		}
		if len(got) != 100 {
			t.Errorf("%s: Range visited %d", kind, len(got))
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	for _, kind := range AllKinds() {
		m := New[int](kind)
		for i := int64(0); i < 10; i++ {
			m.Put(key1(i), int(i))
		}
		count := 0
		m.Range(func(relation.Tuple, int) bool {
			count++
			return count < 3
		})
		if count != 3 {
			t.Errorf("%s: early stop visited %d entries, want 3", kind, count)
		}
	}
}

func TestDListDeleteDuringRange(t *testing.T) {
	l := New[int](DListKind)
	for i := int64(0); i < 5; i++ {
		l.Put(key1(i), int(i))
	}
	l.Range(func(k relation.Tuple, _ int) bool {
		l.Delete(k)
		return true
	})
	if l.Len() != 0 {
		t.Errorf("Len after delete-during-range = %d", l.Len())
	}
}

// TestListDeleteDuringRangeAcrossChunks is TestDListDeleteDuringRange on
// lists long enough that the callback's deletes shift chunks in place, merge
// them and drop them under the walk: in both directions, on a list nothing
// shares and on a clone (whose first delete in a chunk copies it), on full
// chunks and on chunks already thinned to a third (so the walk's deletes
// merge the chunk it is in into the one it has not reached yet), deleting
// every visited entry or only most of them, Range must still visit every
// entry exactly once, in order.
func TestListDeleteDuringRangeAcrossChunks(t *testing.T) {
	const n = 5*listChunkCap + 7
	for _, kind := range listKinds {
		for _, shared := range []bool{false, true} {
			for _, thinned := range []bool{false, true} {
				for _, keepEvery := range []int64{0, 5} {
					label := fmt.Sprintf("shared=%v thinned=%v keep=%d", shared, thinned, keepEvery)
					m := New[int](kind)
					for i := int64(0); i < n; i++ {
						m.Put(key1(i), int(i))
					}
					if thinned {
						for i := int64(0); i < n; i++ {
							if i%3 != 0 {
								m.Delete(key1(i))
							}
						}
					}
					if shared {
						m = m.Clone()
					}
					want := refOf(m)
					order := append([]int64(nil), want.order...)
					if kind == SListKind {
						slices.Reverse(order)
					}
					var visited []int64
					m.Range(func(k relation.Tuple, _ int) bool {
						key := k.ValueAt(0).Int()
						visited = append(visited, key)
						if keepEvery == 0 || key%keepEvery != 0 {
							m.Delete(k)
							want.delete(key)
						}
						return true
					})
					if !slices.Equal(visited, order) {
						t.Fatalf("%s %s: Range visited\n%v, want\n%v", kind, label, visited, order)
					}
					sameContents(t, kind, label, m, want)
				}
			}
		}
	}
}

// TestListReshapeRightAfterClone makes the first write after a Clone one
// that reshapes the chunk directory — a chunk dropped, merged into its left
// neighbour, merged into its right — on the clone and on the receiver, and
// checks that the other side, which shares that directory, still reads back
// its oracle in order.
func TestListReshapeRightAfterClone(t *testing.T) {
	const c = listChunkCap
	for _, tc := range []struct {
		name         string
		n            int64 // keys [0, n) inserted
		thinLo, thin int64 // keys [thinLo, thinLo+thin) deleted before the Clone
		del          int64 // the first write after it
	}{
		{"drop", 3 * c, c, c - 1, 2*c - 1},            // [c][1][c]: the 1 goes, and its chunk
		{"merge-right", 2*c + 2, c, c/2 + 1, 2*c - 1}, // [c][c/2-1][2]: the middle chunk drops to c/2-2
		{"merge-left", 2*c + 2, c, c/2 + 1, 2 * c},    // [c][c/2-1][2]: the tail drops to 1
	} {
		for _, kind := range listKinds {
			for _, onClone := range []bool{true, false} {
				label := fmt.Sprintf("%s onClone=%v", tc.name, onClone)
				m := New[int](kind)
				for i := int64(0); i < tc.n; i++ {
					m.Put(key1(i), int(i))
				}
				for i := tc.thinLo; i < tc.thinLo+tc.thin; i++ {
					m.Delete(key1(i))
				}
				chunks := len(listOf(m).dir)
				want := refOf(m)
				writer, other := m.Clone(), m
				if !onClone {
					writer, other = other, writer
				}
				if !writer.Delete(key1(tc.del)) || len(listOf(writer).dir) != chunks-1 {
					t.Fatalf("%s %s: the delete left %d chunks of %d", kind, label, len(listOf(writer).dir), chunks)
				}
				sameContents(t, kind, label+" other side", other, want)
				want.delete(tc.del)
				sameContents(t, kind, label+" writer", writer, want)
			}
		}
	}
}

func TestAVLInvariantUnderChurn(t *testing.T) {
	tr := NewAVL[int](1)
	var vw colblock.View
	rnd := rand.New(rand.NewSource(9))
	live := make(map[int64]bool)
	for i := 0; i < 2000; i++ {
		k := int64(rnd.Intn(300))
		if rnd.Intn(2) == 0 {
			tr.Put(vw, code1(k), int(k))
			live[k] = true
		} else {
			tr.Delete(vw, code1(k))
			delete(live, k)
		}
		if i%97 == 0 && !tr.checkInvariant(vw) {
			t.Fatalf("AVL invariant broken at step %d", i)
		}
	}
	if tr.Len() != len(live) {
		t.Errorf("AVL Len = %d, want %d", tr.Len(), len(live))
	}
	if !tr.checkInvariant(vw) {
		t.Errorf("AVL invariant broken at end")
	}
}

func TestAVLMinMax(t *testing.T) {
	tr := NewAVL[int](1)
	if _, _, ok := tr.Min(); ok {
		t.Errorf("Min on empty reported ok")
	}
	for _, v := range []int64{5, 1, 9, 3} {
		tr.Put(colblock.View{}, code1(v), int(v))
	}
	if k, _, _ := tr.Min(); k[0] != code1(1)[0] {
		t.Errorf("Min = %v", k)
	}
	if k, _, _ := tr.Max(); k[0] != code1(9)[0] {
		t.Errorf("Max = %v", k)
	}
}

func TestVectorNegativeAndGrowth(t *testing.T) {
	v := New[int](VectorKind)
	v.Put(key1(10), 1)
	v.Put(key1(-5), 2) // grow downward
	v.Put(key1(30), 3) // grow upward
	for _, c := range []struct {
		k int64
		w int
	}{{10, 1}, {-5, 2}, {30, 3}} {
		if got, ok := v.Get(key1(c.k)); !ok || got != c.w {
			t.Errorf("Get(%d) = %d, %v", c.k, got, ok)
		}
	}
	if v.Len() != 3 {
		t.Errorf("Len = %d", v.Len())
	}
	var keys []int64
	v.Range(func(k relation.Tuple, _ int) bool {
		keys = append(keys, k.MustGet("k").Int())
		return true
	})
	want := []int64{-5, 10, 30}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Range keys = %v, want %v", keys, want)
		}
	}
}

func TestVectorRejectsBadKeys(t *testing.T) {
	v := New[int](VectorKind)
	for _, bad := range []relation.Tuple{strKey("x"), key2(1, 2)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("vector accepted bad key %v", bad)
				}
			}()
			v.Put(bad, 0)
		}()
	}
}

func TestVectorSpanLimit(t *testing.T) {
	v := New[int](VectorKind)
	v.Put(key1(0), 1)
	defer func() {
		if recover() == nil {
			t.Errorf("vector accepted enormous span")
		}
	}()
	v.Put(key1(1<<40), 2)
}

func TestCostModelShapes(t *testing.T) {
	// The model must reproduce the complexity ordering the planner relies
	// on: at large n, lookup on lists ≫ trees ≫ hash/vector.
	n := 100000.0
	if !(LookupCost(DListKind, n) > LookupCost(AVLKind, n)) {
		t.Errorf("list lookup not more expensive than tree at n=%v", n)
	}
	if !(LookupCost(AVLKind, n) > LookupCost(HTableKind, n)) {
		t.Errorf("tree lookup not more expensive than hash at n=%v", n)
	}
	if !(LookupCost(HTableKind, n) >= LookupCost(VectorKind, n)) {
		t.Errorf("hash lookup cheaper than vector")
	}
	// Costs are defined (>0) at n = 0 for every kind.
	for _, k := range AllKinds() {
		for _, f := range []func(Kind, float64) float64{LookupCost, ScanCost, InsertCost, DeleteCost} {
			if c := f(k, 0); c <= 0 {
				t.Errorf("%s: zero-size cost = %v", k, c)
			}
		}
	}
}

func TestNewPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("New on unknown kind did not panic")
		}
	}()
	New[int](Kind("bogus"))
}

func TestKindPredicates(t *testing.T) {
	if !Kind("avl").Valid() || Kind("nope").Valid() {
		t.Errorf("Valid wrong")
	}
	if !VectorKind.IntKeyedOnly() || HTableKind.IntKeyedOnly() {
		t.Errorf("IntKeyedOnly wrong")
	}
	if !AVLKind.Ordered() || DListKind.Ordered() {
		t.Errorf("Ordered wrong")
	}
}
