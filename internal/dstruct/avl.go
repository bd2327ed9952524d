package dstruct

import (
	"repro/internal/colblock"
	"repro/internal/value"
)

// AVL is a self-balancing binary search tree ordered by the values its key
// words encode, column by column, playing the role of std::map /
// boost::intrusive::set in the paper's library. Get, Put, and Delete are
// O(log n); Range is an in-order traversal, so iteration yields keys in
// sorted order.
type AVL[V any] struct {
	root  *avlNode[V]
	n     int
	arity int

	// owner is the copy-on-write token. A node is mutable by this tree iff
	// node.owner == t.owner; Clone hands both trees fresh tokens, so every
	// pre-clone node becomes frozen for both sides and is copied on the way
	// down by the first writer that touches it (path copying). Before any
	// Clone both fields are nil, nil == nil, and writes mutate in place at
	// zero extra cost.
	owner *avlOwner
}

type avlOwner struct{ _ byte }

type avlNode[V any] struct {
	key         nodeKey
	val         V
	left, right *avlNode[V]
	owner       *avlOwner
	height      int32
}

// NewAVL returns an empty AVL tree for keys of arity words.
func NewAVL[V any](arity int) *AVL[V] { return &AVL[V]{arity: arity} }

// Kind returns AVLKind.
func (t *AVL[V]) Kind() Kind { return AVLKind }

// Arity returns the number of words per key.
func (t *AVL[V]) Arity() int { return t.arity }

// Len returns the number of entries.
func (t *AVL[V]) Len() int { return t.n }

func height[V any](n *avlNode[V]) int32 {
	if n == nil {
		return 0
	}
	return n.height
}

func fix[V any](n *avlNode[V]) {
	n.height = 1 + max(height(n.left), height(n.right))
}

func balanceOf[V any](n *avlNode[V]) int32 {
	return height(n.left) - height(n.right)
}

// own returns a node this tree may mutate: n itself when n carries the
// tree's token, a copy stamped with the token otherwise. Copying only on
// the mutation path is what makes Clone O(1) and Put/Delete O(log n)
// worst-case even right after a clone.
func (t *AVL[V]) own(n *avlNode[V]) *avlNode[V] {
	if n == nil || n.owner == t.owner {
		return n
	}
	c := *n
	c.owner = t.owner
	return &c
}

// rotateRight and rotateLeft receive an owned pivot but must also own the
// child they hoist, since both operands are restructured.
func (t *AVL[V]) rotateRight(y *avlNode[V]) *avlNode[V] {
	x := t.own(y.left)
	y.left = x.right
	x.right = y
	fix(y)
	fix(x)
	return x
}

func (t *AVL[V]) rotateLeft(x *avlNode[V]) *avlNode[V] {
	y := t.own(x.right)
	x.right = y.left
	y.left = x
	fix(x)
	fix(y)
	return y
}

func (t *AVL[V]) rebalance(n *avlNode[V]) *avlNode[V] {
	fix(n)
	switch b := balanceOf(n); {
	case b > 1:
		if balanceOf(n.left) < 0 {
			n.left = t.rotateLeft(t.own(n.left))
		}
		return t.rotateRight(n)
	case b < -1:
		if balanceOf(n.right) > 0 {
			n.right = t.rotateRight(t.own(n.right))
		}
		return t.rotateLeft(n)
	}
	return n
}

// Get returns the value for k.
func (t *AVL[V]) Get(vw colblock.View, k []colblock.Code) (V, bool) {
	n := t.root
	for n != nil {
		switch c := n.key.cmpTo(vw, k); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Get1 is the single-column-key point lookup: the descent compares one word
// per node.
func (t *AVL[V]) Get1(vw colblock.View, k colblock.Code) (V, bool) {
	n := t.root
	for n != nil {
		if n.key.k0 == k {
			return n.val, true
		}
		if vw.Compare(k, n.key.k0) < 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value for k.
func (t *AVL[V]) Put(vw colblock.View, k []colblock.Code, v V) {
	var inserted bool
	t.root, inserted = t.put(vw, t.root, k, v)
	if inserted {
		t.n++
	}
}

func (t *AVL[V]) put(vw colblock.View, n *avlNode[V], k []colblock.Code, v V) (*avlNode[V], bool) {
	if n == nil {
		return &avlNode[V]{key: makeNodeKey(k), val: v, height: 1, owner: t.owner}, true
	}
	switch c := n.key.cmpTo(vw, k); {
	case c < 0:
		left, inserted := t.put(vw, n.left, k, v)
		n = t.own(n)
		n.left = left
		return t.rebalance(n), inserted
	case c > 0:
		right, inserted := t.put(vw, n.right, k, v)
		n = t.own(n)
		n.right = right
		return t.rebalance(n), inserted
	default:
		n = t.own(n)
		n.val = v
		return n, false
	}
}

// Delete removes k.
func (t *AVL[V]) Delete(vw colblock.View, k []colblock.Code) (V, bool) {
	root, val, ok := t.del(vw, t.root, k)
	if ok {
		t.root = root
		t.n--
	}
	return val, ok
}

// del removes k from the subtree at n, returning the new subtree, the value
// k held and whether it was present.
func (t *AVL[V]) del(vw colblock.View, n *avlNode[V], k []colblock.Code) (*avlNode[V], V, bool) {
	if n == nil {
		var zero V
		return nil, zero, false
	}
	switch c := n.key.cmpTo(vw, k); {
	case c < 0:
		left, val, ok := t.del(vw, n.left, k)
		if !ok {
			return n, val, false
		}
		n = t.own(n)
		n.left = left
		return t.rebalance(n), val, true
	case c > 0:
		right, val, ok := t.del(vw, n.right, k)
		if !ok {
			return n, val, false
		}
		n = t.own(n)
		n.right = right
		return t.rebalance(n), val, true
	default:
		val := n.val
		switch {
		case n.left == nil:
			return n.right, val, true
		case n.right == nil:
			return n.left, val, true
		default:
			// Replace with the in-order successor, unlinked from the right
			// subtree.
			right, succ := t.delMin(n.right)
			n = t.own(n)
			n.key, n.val, n.right = succ.key, succ.val, right
			return t.rebalance(n), val, true
		}
	}
}

// delMin unlinks the smallest node of the non-empty subtree at n.
func (t *AVL[V]) delMin(n *avlNode[V]) (*avlNode[V], *avlNode[V]) {
	if n.left == nil {
		return n.right, n
	}
	left, gone := t.delMin(n.left)
	n = t.own(n)
	n.left = left
	return t.rebalance(n), gone
}

// Range visits entries in ascending key order. The tree must not be mutated
// during iteration.
func (t *AVL[V]) Range(f func(k []colblock.Code, v V) bool) {
	kb := make([]colblock.Code, 0, t.arity)
	t.inorder(t.root, kb, f)
}

func (t *AVL[V]) inorder(n *avlNode[V], kb []colblock.Code, f func(k []colblock.Code, v V) bool) bool {
	if n == nil {
		return true
	}
	if !t.inorder(n.left, kb, f) {
		return false
	}
	if !f(n.key.appendTo(kb), n.val) {
		return false
	}
	return t.inorder(n.right, kb, f)
}

// RangeBetween visits the entries whose first key word lies in [lo, hi] in
// ascending order, pruning subtrees outside the bounds.
func (t *AVL[V]) RangeBetween(vw colblock.View, lo, hi *value.Value, f func(k []colblock.Code, v V) bool) {
	kb := make([]colblock.Code, 0, t.arity)
	var walk func(n *avlNode[V]) bool
	walk = func(n *avlNode[V]) bool {
		if n == nil {
			return true
		}
		aboveLo := lo == nil || vw.CompareValue(n.key.k0, *lo) >= 0
		belowHi := hi == nil || vw.CompareValue(n.key.k0, *hi) <= 0
		if aboveLo && !walk(n.left) {
			return false
		}
		if aboveLo && belowHi && !f(n.key.appendTo(kb), n.val) {
			return false
		}
		return !belowHi || walk(n.right)
	}
	walk(t.root)
}

// AppendEntries appends entries in ascending key order (Range order).
func (t *AVL[V]) AppendEntries(ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	return appendAVL(t.root, ks, vs)
}

func appendAVL[V any](n *avlNode[V], ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	if n == nil {
		return ks, vs
	}
	ks, vs = appendAVL(n.left, ks, vs)
	ks = n.key.appendTo(ks)
	vs = append(vs, n.val)
	return appendAVL(n.right, ks, vs)
}

// Min returns the smallest key and its value, for ordered-extension queries.
func (t *AVL[V]) Min() ([]colblock.Code, V, bool) {
	if t.root == nil {
		var zero V
		return nil, zero, false
	}
	n := t.root
	for n.left != nil {
		n = n.left
	}
	return n.key.appendTo(nil), n.val, true
}

// Max returns the largest key and its value.
func (t *AVL[V]) Max() ([]colblock.Code, V, bool) {
	if t.root == nil {
		var zero V
		return nil, zero, false
	}
	n := t.root
	for n.right != nil {
		n = n.right
	}
	return n.key.appendTo(nil), n.val, true
}

// Clone returns an independent tree sharing every node with the receiver.
// Both sides take fresh owner tokens, so each copies its own write paths
// from the shared structure on demand (persistent-tree path copying).
//
//relvet:role=clone
func (t *AVL[V]) Clone() Words[V] {
	t.owner = new(avlOwner)
	c := *t
	c.owner = new(avlOwner)
	return &c
}

// Footprint counts tree nodes, links included, as entries.
func (t *AVL[V]) Footprint() Footprint {
	fp := Footprint{Entries: t.n * AllocSize(sizeOf[avlNode[V]]()), Overhead: AllocSize(sizeOf[AVL[V]]())}
	if t.arity > 1 {
		var walk func(n *avlNode[V])
		walk = func(n *avlNode[V]) {
			if n != nil {
				fp.Entries += n.key.bytes()
				walk(n.left)
				walk(n.right)
			}
		}
		walk(t.root)
	}
	return fp
}

// checkInvariant verifies AVL balance and BST ordering; used by tests.
func (t *AVL[V]) checkInvariant(vw colblock.View) bool {
	ok := true
	kb := make([]colblock.Code, 0, t.arity)
	var walk func(n *avlNode[V]) int32
	walk = func(n *avlNode[V]) int32 {
		if n == nil {
			return 0
		}
		lh, rh := walk(n.left), walk(n.right)
		if n.height != 1+max(lh, rh) || lh-rh > 1 || lh-rh < -1 {
			ok = false
		}
		if n.left != nil && n.key.cmpTo(vw, n.left.key.appendTo(kb)) >= 0 {
			ok = false
		}
		if n.right != nil && n.key.cmpTo(vw, n.right.key.appendTo(kb)) <= 0 {
			ok = false
		}
		return n.height
	}
	walk(t.root)
	return ok
}
