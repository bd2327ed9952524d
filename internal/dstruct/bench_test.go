package dstruct

import (
	"fmt"
	"testing"

	"repro/internal/colblock"
)

var listKinds = []Kind{DListKind, SListKind}

// BenchmarkListFirstWriteAfterClone is what one copy-on-write commit pays on
// a list edge: fork the list a published version holds, remove one entry
// from the middle and append one. With -benchmem it shows whether the cost
// follows the list's length (an eager clone: one object per entry) or its
// chunk directory. `make bench-smoke` runs it.
func BenchmarkListFirstWriteAfterClone(b *testing.B) {
	for _, kind := range listKinds {
		for _, n := range []int64{64, 512, 4096} {
			b.Run(fmt.Sprintf("%s/%d", kind, n), func(b *testing.B) { benchFirstWriteAfterClone(b, kind, n) })
		}
	}
}

// benchFirstWriteAfterClone times a clone of a kind container of n entries
// plus the first delete and the first put on the clone.
func benchFirstWriteAfterClone(b *testing.B, kind Kind, n int64) {
	var vw colblock.View
	m := NewWords[int](kind, 1)
	for i := int64(0); i < n; i++ {
		m.Put(vw, code1(i), int(i))
	}
	del, put := code1(n/2), code1(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		c.Delete(vw, del)
		c.Put(vw, put, i)
	}
}

// BenchmarkHTableFirstWriteAfterClone is the same commit on a hash-table
// edge: fork, remove one entry, add one. With -benchmem it shows the cost
// following the group directory (8 bytes a group) plus the one or two
// 288-byte groups written, not the entry count. `make bench-smoke` runs it.
func BenchmarkHTableFirstWriteAfterClone(b *testing.B) {
	for _, n := range []int64{128, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) { benchFirstWriteAfterClone(b, HTableKind, n) })
	}
}

// BenchmarkListSmall is the other side of the chunked layout: the lists of
// one to four entries a graph decomposition is made of, which live in their
// header and never clone. At 3 and 4 entries a list is that one object; at
// 5 the fifth Put has promoted it to a directory and a chunk, so the rows
// show both sides of the boundary. build allocates and fills one; get
// looks up its keys in turn.
func BenchmarkListSmall(b *testing.B) {
	var vw colblock.View
	for _, kind := range listKinds {
		for _, n := range []int64{3, 4, 5} {
			keys := make([][]colblock.Code, n)
			for i := range keys {
				keys[i] = code1(int64(i))
			}
			b.Run(fmt.Sprintf("%s/%d/build", kind, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m := NewWords[int](kind, 1)
					for j, k := range keys {
						m.Put(vw, k, j)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/%d/get", kind, n), func(b *testing.B) {
				m := NewWords[int](kind, 1)
				for j, k := range keys {
					m.Put(vw, k, j)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := m.Get(vw, keys[i%len(keys)]); !ok {
						b.Fatal("key missing")
					}
				}
			})
		}
	}
}

// benchListFindWords is the scheduler's hot loop: find a two-column key in a
// chunked list of n entries, the keys a stride of words. Every lookup must
// report 0 allocs/op.
func benchListFindWords(b *testing.B, n int64) {
	var vw colblock.View
	m := NewWords[int](DListKind, 2)
	keys := make([][]colblock.Code, n)
	for i := range keys {
		keys[i] = append(code1(int64(i)%7), code1(int64(i))...)
		m.Put(vw, keys[i], i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get(vw, keys[(i*31)%len(keys)]); !ok {
			b.Fatal("key missing")
		}
	}
}

func BenchmarkListFindWords64(b *testing.B)  { benchListFindWords(b, 64) }
func BenchmarkListFindWords512(b *testing.B) { benchListFindWords(b, 512) }

// BenchmarkHTableGetWord is the single-column point lookup every hashed edge
// of the benchmark's decompositions answers: one word hashed, one group's
// control words matched, nothing allocated.
func BenchmarkHTableGetWord(b *testing.B) {
	var vw colblock.View
	const n = 1 << 14
	m := NewWords[int](HTableKind, 1)
	for i := int64(0); i < n; i++ {
		m.Put(vw, code1(i), int(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := colblock.InlineInt(int64(i*31) & (n - 1))
		if _, ok := m.Get1(vw, c); !ok {
			b.Fatal("key missing")
		}
	}
}
