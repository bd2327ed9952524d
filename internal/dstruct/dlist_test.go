package dstruct

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/colblock"
	"repro/internal/race"
)

// Small-class tests: a list that fits listSmall key words lives in its
// header, the Put that overflows it promotes it to a block, Delete never
// demotes it, and Clone demotes only the copy it returns.

// listWords is the distinct value every small-class test stores under
// entry i, a pointer so that a header slot left holding one shows.
var listWords [64]int

// listKey is entry i's key at the given arity: words 10·i, 10·i+1, ...
func listKey(i, arity int) []colblock.Code {
	k := make([]colblock.Code, arity)
	for j := range k {
		k[j] = code1(int64(10*i + j))[0]
	}
	return k
}

// bareList returns the body of a list-kind container.
func bareList[V any](w Words[V]) *list[V] {
	switch l := w.(type) {
	case *DList[V]:
		return &l.list
	case *SList[V]:
		return &l.list
	}
	return nil
}

// listOrder returns the entry numbers of w in Range order, checking that
// AppendEntries gives the same keys, values and order and that Get finds
// each entry.
func listOrder(t *testing.T, w Words[*int]) []int {
	t.Helper()
	var vw colblock.View
	a := w.Arity()
	var got []int
	w.Range(func(k []colblock.Code, v *int) bool {
		i := int(vw.Decode(k[0]).Int() / 10)
		if !slices.Equal(k, listKey(i, a)) || v != &listWords[i] {
			t.Fatalf("entry %d: key %v, value %p; want %v, %p", i, k, v, listKey(i, a), &listWords[i])
		}
		got = append(got, i)
		return true
	})
	ks, vs := w.AppendEntries(nil, nil)
	if len(ks) != a*len(got) || len(vs) != len(got) || w.Len() != len(got) {
		t.Fatalf("AppendEntries gave %d words and %d values, Range %d entries, Len %d", len(ks), len(vs), len(got), w.Len())
	}
	for n, i := range got {
		if !slices.Equal(ks[n*a:(n+1)*a], listKey(i, a)) || vs[n] != &listWords[i] {
			t.Fatalf("AppendEntries entry %d is not Range's entry %d", n, i)
		}
		if v, ok := w.Get(vw, listKey(i, a)); !ok || v != &listWords[i] {
			t.Fatalf("Get(entry %d) = %p, %v", i, v, ok)
		}
	}
	if l := bareList(w); !l.checkInvariant() {
		t.Fatalf("invariant broken at %d entries (small %v)", w.Len(), l.dir == nil)
	}
	return got
}

// inOrder is entries 0..n-1 in kind's Range order.
func inOrder(kind Kind, n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	if kind == SListKind {
		slices.Reverse(o)
	}
	return o
}

// TestListPromotion pins the header's capacity: listSmall/arity entries
// stay in the header, the next Put moves them all into a first block and
// clears the header's values, a promoted list deleted to nothing stays
// chunked, and a small list's delete clears the slot it frees.
func TestListPromotion(t *testing.T) {
	var vw colblock.View
	for _, kind := range listKinds {
		for _, arity := range []int{1, 2, 3, 5} {
			label := fmt.Sprintf("%s arity %d", kind, arity)
			capacity := listSmall / arity
			w := NewWords[*int](kind, arity)
			l := bareList(w)
			for i := range capacity {
				w.Put(vw, listKey(i, arity), &listWords[i])
				if l.dir != nil {
					t.Fatalf("%s: Put %d of %d promoted the list", label, i+1, capacity)
				}
			}
			if capacity > 0 {
				w.Put(vw, listKey(0, arity), &listWords[0]) // a replace never promotes
				if l.dir != nil || l.n != capacity {
					t.Fatalf("%s: replacing an entry at capacity left %d entries, small %v", label, l.n, l.dir == nil)
				}
			}
			if !slices.Equal(listOrder(t, w), inOrder(kind, capacity)) {
				t.Fatalf("%s: small list out of order", label)
			}

			w.Put(vw, listKey(capacity, arity), &listWords[capacity])
			if len(l.dir) != 1 || l.dir[0].count() != capacity+1 {
				t.Fatalf("%s: Put %d did not promote into one block", label, capacity+1)
			}
			if l.sv != [listSmall]*int{} {
				t.Fatalf("%s: the promoted header still holds values %v", label, l.sv)
			}
			if !slices.Equal(listOrder(t, w), inOrder(kind, capacity+1)) {
				t.Fatalf("%s: promoted list out of order", label)
			}

			for i := range capacity + 1 {
				if v, ok := w.Delete(vw, listKey(i, arity)); !ok || v != &listWords[i] {
					t.Fatalf("%s: Delete(entry %d) = %p, %v", label, i, v, ok)
				}
			}
			if l.dir == nil || len(l.dir) != 0 || len(listOrder(t, w)) != 0 {
				t.Fatalf("%s: a promoted list deleted to nothing has %d blocks, small %v", label, len(l.dir), l.dir == nil)
			}
			w.Put(vw, listKey(7, arity), &listWords[7])
			if l.dir == nil || !slices.Equal(listOrder(t, w), []int{7}) {
				t.Fatalf("%s: a Put into an emptied chunked list went back to the header", label)
			}

			if capacity > 0 {
				s := NewWords[*int](kind, arity)
				for i := range capacity {
					s.Put(vw, listKey(i, arity), &listWords[i])
				}
				s.Delete(vw, listKey(0, arity))
				if l := bareList(s); l.sv[capacity-1] != nil || l.dir != nil {
					t.Fatalf("%s: a small list's delete left its last slot holding %p", label, l.sv[capacity-1])
				}
				want := inOrder(kind, capacity)[1:] // entry 0 gone
				if kind == SListKind {
					want = inOrder(kind, capacity)[:capacity-1]
				}
				if got := listOrder(t, s); !slices.Equal(got, want) {
					t.Fatalf("%s: after a small list's delete it reads %v, want %v", label, got, want)
				}
			}
			if over := (list[*int]{blocks: blocks[*int]{arity: int32(arity)}, n: capacity + 1}); over.checkInvariant() {
				t.Fatalf("%s: checkInvariant accepts %d entries in a header", label, capacity+1)
			}
		}
	}
}

// TestListCloneDemotesTheCloneOnly clones a chunked list that has been
// deleted down to what a header holds: the clone is small, the receiver's
// directory, blocks, epoch and shared flag are exactly as they were,
// and each side reads back its own entries in order through later writes
// on both. A small list's clone is small too.
func TestListCloneDemotesTheCloneOnly(t *testing.T) {
	var vw colblock.View
	for _, kind := range listKinds {
		for _, arity := range []int{1, 2} {
			label := fmt.Sprintf("%s arity %d", kind, arity)
			capacity := listSmall / arity
			w := NewWords[*int](kind, arity)
			for i := range 40 {
				w.Put(vw, listKey(i, arity), &listWords[i])
			}
			keep := []int{3, 17, 26, 39}[:capacity]
			for i := range 40 {
				if !slices.Contains(keep, i) {
					w.Delete(vw, listKey(i, arity))
				}
			}
			l := bareList(w)
			if l.dir == nil {
				t.Fatalf("%s: setup: the list is not chunked", label)
			}
			dir, blocks, epoch, shared := unsafe.SliceData(l.dir), slices.Clone(l.dir), l.epoch, l.shared
			want := listOrder(t, w)

			c := w.Clone()
			cl := bareList(c)
			if cl.dir != nil || cl.n != capacity {
				t.Fatalf("%s: the clone of a chunked list of %d entries is not small", label, capacity)
			}
			if unsafe.SliceData(l.dir) != dir || !slices.Equal(l.dir, blocks) || l.epoch != epoch || l.shared != shared {
				t.Fatalf("%s: the demoting Clone changed the receiver", label)
			}
			if !slices.Equal(listOrder(t, c), want) || !slices.Equal(listOrder(t, w), want) {
				t.Fatalf("%s: the clone or the receiver lost its entries", label)
			}

			// Writes on either side stay on that side; the clone's own clone
			// is small and independent too.
			w.Delete(vw, listKey(keep[0], arity))
			w.Put(vw, listKey(50, arity), &listWords[50])
			c2 := c.Clone()
			if bareList(c2).dir != nil {
				t.Fatalf("%s: the clone of a small list is chunked", label)
			}
			c.Put(vw, listKey(51, arity), &listWords[51])
			c.Delete(vw, listKey(keep[len(keep)-1], arity))
			wantW := append(slices.DeleteFunc(slices.Clone(want), func(i int) bool { return i == keep[0] }), 50)
			wantC := append(slices.DeleteFunc(slices.Clone(want), func(i int) bool { return i == keep[len(keep)-1] }), 51)
			if kind == SListKind {
				wantW = append([]int{50}, wantW[:len(wantW)-1]...)
				wantC = append([]int{51}, wantC[:len(wantC)-1]...)
			}
			if got := listOrder(t, w); !slices.Equal(got, wantW) {
				t.Fatalf("%s: receiver reads %v, want %v", label, got, wantW)
			}
			if got := listOrder(t, c); !slices.Equal(got, wantC) {
				t.Fatalf("%s: clone reads %v, want %v", label, got, wantC)
			}
			if got := listOrder(t, c2); !slices.Equal(got, want) {
				t.Fatalf("%s: the clone's clone reads %v, want %v", label, got, want)
			}
		}
	}
}

// TestListRangeMutatesSmall is the Range-during-mutation contract on a list
// that lives in its header: deleting the visited entry visits every entry
// once, in order, in both directions; an insert that promotes the list in
// the middle of a walk is visited by a forward walk, and a backward walk
// still visits every older entry exactly once.
func TestListRangeMutatesSmall(t *testing.T) {
	var vw colblock.View
	build := func(kind Kind) Words[*int] {
		w := NewWords[*int](kind, 1)
		for i := range listSmall {
			w.Put(vw, listKey(i, 1), &listWords[i])
		}
		return w
	}
	for _, kind := range listKinds {
		w := build(kind)
		var visited []int
		w.Range(func(k []colblock.Code, _ *int) bool {
			visited = append(visited, int(vw.Decode(k[0]).Int()/10))
			if _, ok := w.Delete(vw, k); !ok {
				t.Fatalf("%s: the visited entry is not there to delete", kind)
			}
			return true
		})
		if !slices.Equal(visited, inOrder(kind, listSmall)) || w.Len() != 0 || bareList(w).dir != nil {
			t.Fatalf("%s: deleting while walking visited %v, left %d entries", kind, visited, w.Len())
		}

		for at := range listSmall {
			w := build(kind)
			visited = visited[:0]
			w.Range(func(k []colblock.Code, _ *int) bool {
				i := int(vw.Decode(k[0]).Int() / 10)
				visited = append(visited, i)
				if i == at {
					w.Put(vw, listKey(9, 1), &listWords[9])
				}
				return true
			})
			want := inOrder(kind, listSmall)
			if kind == DListKind {
				want = append(want, 9)
			}
			if bareList(w).dir == nil || !slices.Equal(visited, want) {
				t.Fatalf("%s: an insert promoting at entry %d: visited %v, want %v", kind, at, visited, want)
			}
			listOrder(t, w)
		}
	}
}

// TestListSmallAllocations pins what the header is for: a four-entry list
// is one object from its first Put to its last, its Clone is one object,
// and its Footprint is exactly that object.
func TestListSmallAllocations(t *testing.T) {
	var vw colblock.View
	var sink Words[*int]
	keys := make([][]colblock.Code, listSmall)
	for i := range keys {
		keys[i] = listKey(i, 1)
	}
	var counts []string
	for _, kind := range listKinds {
		build := func() {
			sink = NewWords[*int](kind, 1)
			for i, k := range keys {
				sink.Put(vw, k, &listWords[i])
			}
		}
		builds := testing.AllocsPerRun(100, build)
		w := sink
		clones := testing.AllocsPerRun(100, func() { sink = w.Clone() })
		if fp, hdr := w.Footprint(), AllocSize(int(unsafe.Sizeof(DList[*int]{}))); fp.Entries+fp.Overhead != hdr || hdr != 112 {
			t.Errorf("%s: a small list's Footprint is %d + %d B, want its %d B header", kind, fp.Entries, fp.Overhead, hdr)
		}
		counts = append(counts, fmt.Sprintf("%s: %.0f objects per build, %.0f per clone", kind, builds, clones))
		if !race.Enabled && (builds != 1 || clones != 1) {
			t.Errorf("%s: building a %d-entry list allocates %.0f objects and cloning it %.0f, want 1 and 1", kind, listSmall, builds, clones)
		}
	}
	if race.Enabled {
		t.Skipf("race detector: %v not asserted", counts)
	}
}
