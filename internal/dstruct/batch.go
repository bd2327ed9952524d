package dstruct

import "repro/internal/relation"

// Entries is the optional bulk-extraction capability behind the vectorized
// execution tier: one call appends every entry to caller-owned slices, in
// the same order Range would visit them, without a per-entry callback. The
// batch scan stage in plan.CompileBatch discovers it by type assertion (the
// same pattern as Ranger) and falls back to Range when absent, so the
// capability is a pure fast path, never a requirement.
//
// Implementations must not allocate beyond growing ks/vs, and callers must
// not mutate the map while holding the returned key tuples.
type Entries[V any] interface {
	AppendEntries(ks []relation.Tuple, vs []V) ([]relation.Tuple, []V)
}

// AppendEntries appends every entry of m to ks/vs in Range order, using the
// Entries fast path when m provides it and a Range sweep otherwise. The
// sweep lives in its own function so the fast path never pays the heap
// boxing the Range closure's captures would force on ks and vs.
func AppendEntries[V any](m Map[V], ks []relation.Tuple, vs []V) ([]relation.Tuple, []V) {
	if e, ok := m.(Entries[V]); ok {
		return e.AppendEntries(ks, vs)
	}
	return appendViaRange(m, ks, vs)
}

func appendViaRange[V any](m Map[V], ks []relation.Tuple, vs []V) ([]relation.Tuple, []V) {
	m.Range(func(k relation.Tuple, v V) bool {
		ks = append(ks, k)
		vs = append(vs, v)
		return true
	})
	return ks, vs
}

// AppendEntriesBetween is AppendEntries restricted to the entries whose
// keys fall in [lo, hi] (inclusive; a zero bound tuple is unbounded, as for
// Ranger): the bulk extraction under a vectorized range scan. An ordered
// container seeks — RangeBetween touches only the entries it appends —
// while an unordered one is extracted whole and filtered in place. The
// fault wrapper forwards Ranger over either kind, so under injection this
// crosses the same single range point a Range sweep would.
func AppendEntriesBetween[V any](m Map[V], lo, hi relation.Tuple, ks []relation.Tuple, vs []V) ([]relation.Tuple, []V) {
	if r, ok := m.(Ranger[V]); ok {
		r.RangeBetween(lo, hi, func(k relation.Tuple, v V) bool {
			ks, vs = append(ks, k), append(vs, v)
			return true
		})
		return ks, vs
	}
	w := len(ks)
	ks, vs = AppendEntries(m, ks, vs)
	for i := w; i < len(ks); i++ {
		if between(ks[i], lo, hi) {
			ks[w], vs[w] = ks[i], vs[i]
			w++
		}
	}
	return ks[:w], vs[:w]
}

// AppendEntries appends entries in ascending key order (Range order).
func (t *AVL[V]) AppendEntries(ks []relation.Tuple, vs []V) ([]relation.Tuple, []V) {
	return appendAVL(t.root, ks, vs)
}

func appendAVL[V any](n *avlNode[V], ks []relation.Tuple, vs []V) ([]relation.Tuple, []V) {
	if n == nil {
		return ks, vs
	}
	ks, vs = appendAVL(n.left, ks, vs)
	ks = append(ks, n.key)
	vs = append(vs, n.val)
	return appendAVL(n.right, ks, vs)
}

// AppendEntries appends entries in insertion order (Range order).
func (l *DList[V]) AppendEntries(ks []relation.Tuple, vs []V) ([]relation.Tuple, []V) {
	for ci := range l.dir {
		for _, e := range l.dir[ci].ents {
			ks = append(ks, e.key)
			vs = append(vs, e.val)
		}
	}
	return ks, vs
}

// AppendEntries appends entries newest-first (Range order).
func (l *SList[V]) AppendEntries(ks []relation.Tuple, vs []V) ([]relation.Tuple, []V) {
	for ci := len(l.dir) - 1; ci >= 0; ci-- {
		ents := l.dir[ci].ents
		for i := len(ents) - 1; i >= 0; i-- {
			ks = append(ks, ents[i].key)
			vs = append(vs, ents[i].val)
		}
	}
	return ks, vs
}

// AppendEntries appends entries in bucket order (Range order).
func (h *HTable[V]) AppendEntries(ks []relation.Tuple, vs []V) ([]relation.Tuple, []V) {
	for _, head := range h.buckets {
		for n := head; n != nil; n = n.next {
			ks = append(ks, n.key)
			vs = append(vs, n.val)
		}
	}
	return ks, vs
}

// AppendEntries appends entries in ascending key order (Range order).
func (s *SkipList[V]) AppendEntries(ks []relation.Tuple, vs []V) ([]relation.Tuple, []V) {
	for n := s.head.next[0]; n != nil; n = n.next[0] {
		ks = append(ks, n.key)
		vs = append(vs, n.val)
	}
	return ks, vs
}

// AppendEntries appends entries in ascending key order (Range order).
// Unlike Range it does not snapshot the key array first: bulk extraction is
// a read-only sweep, so the delete-during-iteration tolerance Range buys
// with its copy is not needed.
func (s *SortedArr[V]) AppendEntries(ks []relation.Tuple, vs []V) ([]relation.Tuple, []V) {
	return append(ks, s.keys...), append(vs, s.vals...)
}

// AppendEntries appends present slots in ascending key order (Range order).
// Vector stores no key tuples, so this is the one structure whose extraction
// allocates: each present slot synthesizes its single-column key, exactly as
// Range does.
func (v *Vector[V]) AppendEntries(ks []relation.Tuple, vs []V) ([]relation.Tuple, []V) {
	for i := range v.slots {
		if v.slots[i].present {
			ks = append(ks, relation.NewTuple(relation.BindInt(v.col, v.base+int64(i))))
			vs = append(vs, v.slots[i].val)
		}
	}
	return ks, vs
}

// AppendEntries keeps the bulk-extraction fast path visible through the
// fault wrapper, mirroring RangeBetween: the vectorized scan stage discovers
// the capability by type assertion, which would otherwise stop at the
// wrapper and silently pin every batch execution to the Range fallback while
// injection is on. The injection point is the same one Range fires — a bulk
// extraction is one logical range sweep.
func (f *faultMap[V]) AppendEntries(ks []relation.Tuple, vs []V) ([]relation.Tuple, []V) {
	_ = f.p.Point("dstruct.range", false)
	return AppendEntries(f.m, ks, vs)
}
