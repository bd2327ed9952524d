package dstruct

import (
	"fmt"
	"testing"

	"repro/internal/relation"
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
			b.Run(fmt.Sprintf("%s/%d", kind, n), func(b *testing.B) {
				m := New[int](kind)
				for i := int64(0); i < n; i++ {
					m.Put(key1(i), int(i))
				}
				del, put := key1(n/2), key1(n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := m.Clone()
					c.Delete(del)
					c.Put(put, i)
				}
			})
		}
	}
}

// BenchmarkListSmall is the other side of the chunked layout: the
// three-entry lists a graph decomposition is made of, which never clone and
// only pay the directory hop. build allocates and fills one; get looks up
// its keys in turn.
func BenchmarkListSmall(b *testing.B) {
	keys := []relation.Tuple{key1(0), key1(1), key1(2)}
	for _, kind := range listKinds {
		b.Run(string(kind)+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := New[int](kind)
				for j, k := range keys {
					m.Put(k, j)
				}
			}
		})
		b.Run(string(kind)+"/get", func(b *testing.B) {
			m := New[int](kind)
			for j, k := range keys {
				m.Put(k, j)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := m.Get(keys[i%len(keys)]); !ok {
					b.Fatal("key missing")
				}
			}
		})
	}
}
