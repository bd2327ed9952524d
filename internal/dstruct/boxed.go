package dstruct

import (
	"fmt"

	"repro/internal/colblock"
	"repro/internal/relation"
	"repro/internal/value"
)

// boxed is the one implementation of Map: a Words container with the
// tuple-to-words translation in front of it. Each call encodes the key it is
// given (lookups without interning — a value the dictionary has never seen
// is in no container) and each entry handed out is boxed into a fresh tuple,
// so it is for the cold callers named on Map, not for the paths the engine
// runs per operation.
type boxed[V any] struct {
	kind  Kind
	w     Words[V]       // nil until the first Put of a stand-alone map fixes the arity
	names []string       // key column names, sorted
	d     *colblock.Dict // the lineage's dictionary: Put interns through it
	vw    *colblock.View // the owner's view of d; refreshed after an intern
}

// Ranger is the optional Map interface of ordered containers; see
// WordRanger. lo and hi are inclusive single-column bounds; a zero bound
// tuple (Len() == 0) means unbounded on that side.
type Ranger[V any] interface {
	RangeBetween(lo, hi relation.Tuple, f func(k relation.Tuple, v V) bool)
}

// boxedRanger adds Ranger to the adapter of a container that can seek.
type boxedRanger[V any] struct{ *boxed[V] }

// Boxed returns w as a Map keyed by tuples over the columns names, in that
// (sorted) order. d is the dictionary w's codes come from and vw the
// caller's view of it, which Put keeps current. The result is a Ranger iff w
// is a WordRanger.
func Boxed[V any](w Words[V], names []string, d *colblock.Dict, vw *colblock.View) Map[V] {
	return (&boxed[V]{kind: w.Kind(), w: w, names: names, d: d, vw: vw}).asMap()
}

func newBoxed[V any](k Kind) Map[V] {
	d := colblock.NewDict()
	vw := d.View()
	return (&boxed[V]{kind: k, d: d, vw: &vw}).asMap()
}

func (b *boxed[V]) asMap() Map[V] {
	_, seeks := b.w.(WordRanger[V])
	if seeks || (b.w == nil && b.kind.Ordered()) {
		return boxedRanger[V]{b}
	}
	return b
}

func (b *boxed[V]) Kind() Kind { return b.kind }

func (b *boxed[V]) Len() int {
	if b.w == nil {
		return 0
	}
	return b.w.Len()
}

// find encodes k without interning; ok is false when some value of k has no
// code, or k has the wrong arity — either way no entry has that key.
func (b *boxed[V]) find(k relation.Tuple) ([]colblock.Code, bool) {
	if b.w == nil || k.Len() != b.w.Arity() {
		return nil, false
	}
	kw := make([]colblock.Code, k.Len())
	for i := range kw {
		c, ok := b.vw.Find(k.ValueAt(i))
		if !ok {
			return nil, false
		}
		kw[i] = c
	}
	return kw, true
}

func (b *boxed[V]) Get(k relation.Tuple) (V, bool) {
	if kw, ok := b.find(k); ok {
		return b.w.Get(*b.vw, kw)
	}
	var zero V
	return zero, false
}

func (b *boxed[V]) GetByValue(v value.Value) (V, bool) {
	if b.w != nil && b.w.Arity() == 1 {
		if c, ok := b.vw.Find(v); ok {
			return b.w.Get1(*b.vw, c)
		}
	}
	var zero V
	return zero, false
}

func (b *boxed[V]) Put(k relation.Tuple, v V) {
	if b.w == nil {
		b.names = k.Dom().Names()
		b.w = NewWords[V](b.kind, k.Len())
	}
	if k.Len() != b.w.Arity() {
		panic(fmt.Sprintf("dstruct: %s keyed by %d columns given key %v", b.kind, b.w.Arity(), k))
	}
	kw := make([]colblock.Code, k.Len())
	for i := range kw {
		kw[i] = b.d.Encode(k.ValueAt(i))
	}
	*b.vw = b.d.View()
	b.w.Put(*b.vw, kw, v)
}

func (b *boxed[V]) Delete(k relation.Tuple) bool {
	if kw, ok := b.find(k); ok {
		_, ok = b.w.Delete(*b.vw, kw)
		return ok
	}
	return false
}

// box is the key kw as a tuple of its own.
func (b *boxed[V]) box(kw []colblock.Code) relation.Tuple {
	vals := make([]value.Value, len(kw))
	for i, c := range kw {
		vals[i] = b.vw.Decode(c)
	}
	return relation.SortedTuple(b.names, vals)
}

func (b *boxed[V]) Range(f func(k relation.Tuple, v V) bool) {
	if b.w != nil {
		b.w.Range(func(kw []colblock.Code, v V) bool { return f(b.box(kw), v) })
	}
}

// Clone shares the dictionary — it is append-only, and the two sides are one
// owner's — and gives the clone a view of its own.
func (b *boxed[V]) Clone() Map[V] {
	c := *b
	if b.w != nil {
		c.w = b.w.Clone()
	}
	vw := *b.vw
	c.vw = &vw
	return c.asMap()
}

func (b boxedRanger[V]) RangeBetween(lo, hi relation.Tuple, f func(k relation.Tuple, v V) bool) {
	r, ok := b.w.(WordRanger[V])
	if !ok {
		return // a stand-alone map nothing was ever put in
	}
	var bounds [2]*value.Value
	for i, t := range [2]relation.Tuple{lo, hi} {
		if t.Len() > 0 {
			v := t.ValueAt(0)
			bounds[i] = &v
		}
	}
	r.RangeBetween(*b.vw, bounds[0], bounds[1], func(kw []colblock.Code, v V) bool { return f(b.box(kw), v) })
}
