package dstruct

import (
	"slices"
	"testing"

	"repro/internal/colblock"
)

// TestAppendEntriesMatchesRange checks, for every structure kind, that bulk
// extraction yields exactly the entries Range visits, in the same order —
// the contract the vectorized scan stage depends on for deterministic
// differential comparison against the row-at-a-time tiers.
func TestAppendEntriesMatchesRange(t *testing.T) {
	var vw colblock.View
	for _, kind := range []Kind{AVLKind, DListKind, SListKind, HTableKind, SkipListKind, SortedArrKind, VectorKind} {
		t.Run(string(kind), func(t *testing.T) {
			m := NewWords[int](kind, 1)
			for i := 0; i < 37; i++ {
				m.Put(vw, code1(int64(i*3%37)), i)
			}
			var wantK []colblock.Code
			var wantV []int
			m.Range(func(k []colblock.Code, v int) bool {
				wantK = append(wantK, k...)
				wantV = append(wantV, v)
				return true
			})
			ks, vs := m.AppendEntries(nil, nil)
			if !slices.Equal(ks, wantK) || !slices.Equal(vs, wantV) {
				t.Fatalf("extracted %v→%v, Range saw %v→%v", ks, vs, wantK, wantV)
			}
			// Appending to non-empty slices must extend, not clobber.
			ks2, vs2 := m.AppendEntries(ks[:1:1], vs[:1:1])
			if len(ks2) != len(ks)+1 || ks2[0] != ks[0] || vs2[0] != vs[0] {
				t.Fatal("AppendEntries must append after existing entries")
			}
		})
	}
}

// TestAppendEntriesStridesWideKeys: a key of several columns is extracted as
// that many consecutive words per entry, on every kind that takes one.
func TestAppendEntriesStridesWideKeys(t *testing.T) {
	var vw colblock.View
	for _, kind := range kindsFor(false) {
		m := NewWords[int](kind, 3)
		for i := int64(0); i < 40; i++ {
			m.Put(vw, append(append(code1(i%5), code1(i)...), code1(-i)...), int(i))
		}
		ks, vs := m.AppendEntries(nil, nil)
		if len(vs) != 40 || len(ks) != 3*len(vs) {
			t.Fatalf("%s: %d key words for %d entries", kind, len(ks), len(vs))
		}
		for e, v := range vs {
			if want := append(append(code1(int64(v)%5), code1(int64(v))...), code1(-int64(v))...); !slices.Equal(ks[3*e:3*e+3], want) {
				t.Fatalf("%s: entry %d holds key %v for value %d", kind, e, ks[3*e:3*e+3], v)
			}
			if got, ok := m.Get(vw, ks[3*e:3*e+3]); !ok || got != v {
				t.Fatalf("%s: Get of extracted key %d = %d, %v", kind, e, got, ok)
			}
		}
	}
}
