package dstruct

import (
	"fmt"
	"testing"

	"repro/internal/colblock"
)

var listKinds = []Kind{DListKind, SListKind}

// BenchmarkFirstWriteAfterClone is what one copy-on-write commit pays on an
// edge of each kind (firstWrite): fork the container a published version
// holds, remove one entry from the middle and add one. With -benchmem it
// shows whether the cost follows the length (the skip list's eager clone,
// the vector's and sorted array's whole-array copy) or a directory and the
// blocks written (lists, hash tables). `make bench-smoke` runs it.
func BenchmarkFirstWriteAfterClone(b *testing.B) {
	for _, kind := range allKinds() {
		for _, n := range []int64{64, 512, 4096} {
			b.Run(fmt.Sprintf("%s/%d", kind, n), func(b *testing.B) {
				op := firstWrite(kind, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
			})
		}
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
