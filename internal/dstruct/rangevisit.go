package dstruct

import "repro/internal/relation"

// Ranger is the optional interface of ordered containers that can visit
// only the entries whose keys fall in [lo, hi] without touching the rest.
// The range-query extension of package plan (§2 of the paper calls
// order-based queries a straightforward extension of the equality-only
// interface) uses it to turn O(n) filtered scans into O(log n + k) range
// scans.
//
// lo and hi are inclusive bounds over the container's key domain; a zero
// bound tuple (Len() == 0) means unbounded on that side.
type Ranger[V any] interface {
	RangeBetween(lo, hi relation.Tuple, f func(k relation.Tuple, v V) bool)
}

func unbounded(t relation.Tuple) bool { return t.Len() == 0 }

// between reports lo ≤ k ≤ hi: the filter an unordered container applies
// where an ordered one seeks.
func between(k, lo, hi relation.Tuple) bool {
	return (unbounded(lo) || k.Compare(lo) >= 0) && (unbounded(hi) || k.Compare(hi) <= 0)
}

// RangeBetween visits the AVL entries with lo ≤ k ≤ hi in ascending order,
// pruning subtrees outside the bounds.
func (t *AVL[V]) RangeBetween(lo, hi relation.Tuple, f func(k relation.Tuple, v V) bool) {
	var walk func(n *avlNode[V]) bool
	walk = func(n *avlNode[V]) bool {
		if n == nil {
			return true
		}
		aboveLo := unbounded(lo) || n.key.Compare(lo) >= 0
		belowHi := unbounded(hi) || n.key.Compare(hi) <= 0
		if aboveLo {
			if !walk(n.left) {
				return false
			}
		}
		if aboveLo && belowHi {
			if !f(n.key, n.val) {
				return false
			}
		}
		if belowHi {
			if !walk(n.right) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}

// RangeBetween visits the sorted-array entries in [lo, hi] by binary
// searching the lower bound.
func (s *SortedArr[V]) RangeBetween(lo, hi relation.Tuple, f func(k relation.Tuple, v V) bool) {
	start := 0
	if !unbounded(lo) {
		start, _ = s.search(lo)
	}
	for i := start; i < len(s.keys); i++ {
		if !unbounded(hi) && s.keys[i].Compare(hi) > 0 {
			return
		}
		if !f(s.keys[i], s.vals[i]) {
			return
		}
	}
}

// RangeBetween visits the skip-list entries in [lo, hi], seeking the lower
// bound through the towers.
func (s *SkipList[V]) RangeBetween(lo, hi relation.Tuple, f func(k relation.Tuple, v V) bool) {
	n := s.head.next[0]
	if !unbounded(lo) {
		n = s.findPred(lo, nil)
	}
	for ; n != nil; n = n.next[0] {
		if !unbounded(hi) && n.key.Compare(hi) > 0 {
			return
		}
		if !f(n.key, n.val) {
			return
		}
	}
}

// RangeBetween visits the vector slots in [lo, hi] directly by index.
func (v *Vector[V]) RangeBetween(lo, hi relation.Tuple, f func(k relation.Tuple, v2 V) bool) {
	if !v.started {
		return
	}
	from, to := int64(0), int64(len(v.slots))-1
	if !unbounded(lo) {
		if i := vectorIndex(lo) - v.base; i > from {
			from = i
		}
	}
	if !unbounded(hi) {
		if i := vectorIndex(hi) - v.base; i < to {
			to = i
		}
	}
	for i := from; i <= to && i >= 0 && i < int64(len(v.slots)); i++ {
		if v.slots[i].present {
			k := relation.NewTuple(relation.BindInt(v.col, v.base+i))
			if !f(k, v.slots[i].val) {
				return
			}
		}
	}
}
