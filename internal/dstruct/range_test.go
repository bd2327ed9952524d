package dstruct

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/colblock"
	"repro/internal/relation"
	"repro/internal/value"
)

// rangers returns the containers implementing the ordered Ranger
// extension.
func rangers() map[Kind]Map[int] {
	return map[Kind]Map[int]{
		AVLKind:       New[int](AVLKind),
		SortedArrKind: New[int](SortedArrKind),
		SkipListKind:  New[int](SkipListKind),
		VectorKind:    New[int](VectorKind),
	}
}

func TestRangeBetweenAgainstFilter(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for kind, m := range rangers() {
		t.Run(string(kind), func(t *testing.T) {
			ranger, ok := m.(Ranger[int])
			if !ok {
				t.Fatalf("%s does not implement Ranger", kind)
			}
			live := make(map[int64]int)
			for i := 0; i < 300; i++ {
				k := int64(rnd.Intn(200))
				v := rnd.Intn(1000)
				m.Put(key1(k), v)
				live[k] = v
				if rnd.Intn(5) == 0 {
					d := int64(rnd.Intn(200))
					m.Delete(key1(d))
					delete(live, d)
				}
			}
			cases := []struct {
				lo, hi       int64
				hasLo, hasHi bool
			}{
				{10, 50, true, true},
				{0, 0, true, true},    // single point
				{150, 10, true, true}, // empty (inverted)
				{100, 0, true, false}, // lower bound only
				{0, 100, false, true}, // upper bound only
				{0, 0, false, false},  // unbounded
			}
			for _, c := range cases {
				lo, hi := relation.Tuple{}, relation.Tuple{}
				if c.hasLo {
					lo = key1(c.lo)
				}
				if c.hasHi {
					hi = key1(c.hi)
				}
				got := make(map[int64]int)
				var order []int64
				ranger.RangeBetween(lo, hi, func(k relation.Tuple, v int) bool {
					kv := k.MustGet("k").Int()
					got[kv] = v
					order = append(order, kv)
					return true
				})
				want := make(map[int64]int)
				for k, v := range live {
					if c.hasLo && k < c.lo {
						continue
					}
					if c.hasHi && k > c.hi {
						continue
					}
					want[k] = v
				}
				if len(got) != len(want) {
					t.Fatalf("range [%d,%d] (lo=%v hi=%v): got %d entries, want %d",
						c.lo, c.hi, c.hasLo, c.hasHi, len(got), len(want))
				}
				for k, v := range want {
					if got[k] != v {
						t.Fatalf("range mismatch at %d", k)
					}
				}
				for i := 1; i < len(order); i++ {
					if order[i-1] >= order[i] {
						t.Fatalf("range visit not in ascending order: %v", order)
					}
				}
			}
		})
	}
}

func TestRangeBetweenEarlyStop(t *testing.T) {
	for kind, m := range rangers() {
		for i := int64(0); i < 20; i++ {
			m.Put(key1(i), int(i))
		}
		n := 0
		m.(Ranger[int]).RangeBetween(key1(5), relation.Tuple{}, func(relation.Tuple, int) bool {
			n++
			return n < 3
		})
		if n != 3 {
			t.Errorf("%s: early stop visited %d", kind, n)
		}
	}
}

func TestUnorderedKindsHaveNoRanger(t *testing.T) {
	for _, kind := range []Kind{DListKind, SListKind, HTableKind} {
		m := New[int](kind)
		if _, ok := m.(Ranger[int]); ok {
			t.Errorf("%s unexpectedly implements Ranger", kind)
		}
	}
}

// TestAppendEntriesBetween: on every kind — the ordered ones seek, the
// others are extracted whole and filtered — the ranged bulk extraction
// appends exactly the entries of AppendEntries whose keys lie in the
// interval, in the same order, after whatever the slices already held.
func TestAppendEntriesBetween(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	var vw colblock.View
	bound := func(v int64) *value.Value { b := value.OfInt(v); return &b }
	for _, kind := range AllKinds() {
		m := NewWords[int](kind, 1)
		for i := 0; i < 120; i++ {
			k := int64(rnd.Intn(90))
			m.Put(vw, code1(k), int(k)*3)
		}
		allK, allV := m.AppendEntries(nil, nil)
		for _, c := range [][2]*value.Value{
			{bound(10), bound(50)}, {bound(33), bound(33)}, {bound(60), bound(20)},
			{bound(70), nil}, {nil, bound(15)}, {nil, nil}, {bound(500), bound(600)},
		} {
			lo, hi := c[0], c[1]
			gotK, gotV := AppendEntriesBetween(m, vw, lo, hi, code1(-1), []int{-1})
			wantK, wantV := code1(-1), []int{-1}
			for i, k := range allK {
				if between(vw, k, lo, hi) {
					wantK, wantV = append(wantK, k), append(wantV, allV[i])
				}
			}
			if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
				t.Fatalf("%s [%v,%v]: extracted %v→%v, want %v→%v", kind, lo, hi, gotK, gotV, wantK, wantV)
			}
		}
	}
}
