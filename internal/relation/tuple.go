package relation

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// A Tuple maps a finite set of columns to values (§2). Tuples are immutable:
// all operations return fresh tuples. The zero Tuple is the empty tuple 〈〉,
// which is a valuation for the empty column set.
//
// Internally the bindings are kept sorted by column name so that equality,
// matching, and key encoding are canonical.
type Tuple struct {
	cols []string
	vals []value.Value
}

// Binding is a single column/value pair, used to construct tuples.
type Binding struct {
	Col string
	Val value.Value
}

// NewTuple builds a tuple from bindings. It panics if the same column is
// bound twice; tuple construction with duplicate columns is always a
// programming error. A tuple has a handful of columns, so the bindings are
// insertion-sorted straight into the tuple's slices.
func NewTuple(bs ...Binding) Tuple {
	if len(bs) == 0 {
		return Tuple{}
	}
	cols := make([]string, len(bs))
	vals := make([]value.Value, len(bs))
	for i, b := range bs {
		j := i
		for ; j > 0 && cols[j-1] > b.Col; j-- {
			cols[j], vals[j] = cols[j-1], vals[j-1]
		}
		cols[j], vals[j] = b.Col, b.Val
	}
	for i := 1; i < len(cols); i++ {
		if cols[i] == cols[i-1] {
			panic(fmt.Sprintf("relation: duplicate column %q in tuple", cols[i]))
		}
	}
	return Tuple{cols: cols, vals: vals}
}

// Bind is shorthand for Binding{col, v}.
func Bind(col string, v value.Value) Binding { return Binding{Col: col, Val: v} }

// SortedTuple wraps pre-sorted parallel column/value slices as a Tuple
// without copying or validation: cols must be strictly sorted ascending and
// vals[i] is the value of cols[i]. The tuple aliases both slices, so the
// caller must treat them as frozen for the tuple's lifetime (or, for
// transient lookup keys, until the callee returns). It is the zero-cost
// constructor for hot paths — compiled query programs that already hold
// values in column order — where NewTuple's sort and copy would dominate.
func SortedTuple(cols []string, vals []value.Value) Tuple {
	return Tuple{cols: cols, vals: vals}
}

// BindInt binds col to the integer v.
func BindInt(col string, v int64) Binding { return Binding{Col: col, Val: value.OfInt(v)} }

// BindString binds col to the string s.
func BindString(col string, s string) Binding { return Binding{Col: col, Val: value.OfString(s)} }

// Dom returns the domain of t: the set of columns it binds.
func (t Tuple) Dom() Cols { return Cols{names: t.cols} }

// Len returns the number of bound columns.
func (t Tuple) Len() int { return len(t.cols) }

// ValueAt returns the value of the i-th binding in column order. It is the
// positional accessor for hot paths that already know the tuple's shape —
// in particular single-column map keys, whose sole value is ValueAt(0).
func (t Tuple) ValueAt(i int) value.Value { return t.vals[i] }

// Get returns the value of column c and whether it is bound.
func (t Tuple) Get(c string) (value.Value, bool) {
	i := sort.SearchStrings(t.cols, c)
	if i < len(t.cols) && t.cols[i] == c {
		return t.vals[i], true
	}
	return value.Value{}, false
}

// MustGet returns the value of column c, panicking if unbound. Use in code
// paths where the domain has already been validated.
func (t Tuple) MustGet(c string) value.Value {
	v, ok := t.Get(c)
	if !ok {
		panic(fmt.Sprintf("relation: column %q unbound in tuple %v", c, t))
	}
	return v
}

// Project returns π_C(t): the restriction of t to the columns of C that t
// binds. Columns of C absent from t are silently dropped, which matches the
// paper's use of projection on partial tuples.
//
// The values are always copied (t may be a transient view). When t binds
// every column of C — every projection on the engine's read paths — the
// result shares C's sorted name slice, so it costs one allocation, not two.
func (t Tuple) Project(c Cols) Tuple {
	vals := make([]value.Value, 0, len(c.names))
	j := 0
	for i := 0; i < len(t.cols) && j < len(c.names); i++ {
		for j < len(c.names) && c.names[j] < t.cols[i] {
			j++
		}
		if j < len(c.names) && c.names[j] == t.cols[i] {
			vals = append(vals, t.vals[i])
			j++
		}
	}
	if len(vals) == len(c.names) {
		return Tuple{cols: c.names, vals: vals}
	}
	cols := make([]string, 0, len(vals))
	for _, name := range t.cols {
		if c.Has(name) {
			cols = append(cols, name)
		}
	}
	return Tuple{cols: cols, vals: vals}
}

// Extends reports t ⊇ s: t binds every column of s to the same value.
func (t Tuple) Extends(s Tuple) bool {
	i := 0
	for j, c := range s.cols {
		for i < len(t.cols) && t.cols[i] < c {
			i++
		}
		if i == len(t.cols) || t.cols[i] != c || t.vals[i] != s.vals[j] {
			return false
		}
	}
	return true
}

// Matches reports t ∼ s: t and s agree on all common columns.
func (t Tuple) Matches(s Tuple) bool {
	i, j := 0, 0
	for i < len(t.cols) && j < len(s.cols) {
		switch {
		case t.cols[i] == s.cols[j]:
			if t.vals[i] != s.vals[j] {
				return false
			}
			i++
			j++
		case t.cols[i] < s.cols[j]:
			i++
		default:
			j++
		}
	}
	return true
}

// Merge returns t ▷ u: the tuple over dom t ∪ dom u taking u's value wherever
// the two disagree (the paper's s ⊔ t with right bias).
func (t Tuple) Merge(u Tuple) Tuple {
	cols := make([]string, 0, len(t.cols)+len(u.cols))
	vals := make([]value.Value, 0, len(t.cols)+len(u.cols))
	i, j := 0, 0
	for i < len(t.cols) || j < len(u.cols) {
		switch {
		case i == len(t.cols):
			cols = append(cols, u.cols[j])
			vals = append(vals, u.vals[j])
			j++
		case j == len(u.cols):
			cols = append(cols, t.cols[i])
			vals = append(vals, t.vals[i])
			i++
		case t.cols[i] == u.cols[j]:
			cols = append(cols, u.cols[j])
			vals = append(vals, u.vals[j]) // right bias
			i++
			j++
		case t.cols[i] < u.cols[j]:
			cols = append(cols, t.cols[i])
			vals = append(vals, t.vals[i])
			i++
		default:
			cols = append(cols, u.cols[j])
			vals = append(vals, u.vals[j])
			j++
		}
	}
	return Tuple{cols: cols, vals: vals}
}

// Equal reports whether t and u bind exactly the same columns to the same
// values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t.cols) != len(u.cols) {
		return false
	}
	for i := range t.cols {
		if t.cols[i] != u.cols[i] || t.vals[i] != u.vals[i] {
			return false
		}
	}
	return true
}

// keySize returns the exact encoded length of Key(), so buffers can be
// allocated once instead of grown.
func (t Tuple) keySize() int {
	n := 0
	for i, c := range t.cols {
		n += 2 + len(c) + t.vals[i].EncodedSize()
	}
	return n
}

// AppendKey appends the canonical injective encoding of t (see Key) to b
// and returns the extended slice. Callers on hot paths pass a reused
// scratch buffer (b[:0]) to avoid allocating a fresh key per operation.
func (t Tuple) AppendKey(b []byte) []byte {
	if need := len(b) + t.keySize(); cap(b) < need {
		nb := make([]byte, len(b), need)
		copy(nb, b)
		b = nb
	}
	for i, c := range t.cols {
		b = append(b, byte(len(c)>>8), byte(len(c)))
		b = append(b, c...)
		b = t.vals[i].AppendEncode(b)
	}
	return b
}

// Key returns a canonical, injective string encoding of t, usable as a Go
// map key. Tuples with different domains or values always get different
// keys.
func (t Tuple) Key() string {
	b := t.AppendKey(make([]byte, 0, t.keySize()))
	return string(b)
}

// Compare totally orders tuples with equal domains by comparing values in
// column order. It panics if the domains differ.
func (t Tuple) Compare(u Tuple) int {
	if len(t.cols) != len(u.cols) {
		panic("relation: Compare on tuples with different domains")
	}
	for i := range t.cols {
		if t.cols[i] != u.cols[i] {
			panic("relation: Compare on tuples with different domains")
		}
		if c := value.Compare(t.vals[i], u.vals[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Bindings returns the bindings of t in column order. The caller may mutate
// the returned slice.
func (t Tuple) Bindings() []Binding {
	bs := make([]Binding, len(t.cols))
	for i := range t.cols {
		bs[i] = Binding{Col: t.cols[i], Val: t.vals[i]}
	}
	return bs
}

// String renders the tuple as 〈a: 1, b: "x"〉-style text for diagnostics.
func (t Tuple) String() string {
	var sb strings.Builder
	sb.WriteByte('<')
	for i, c := range t.cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c)
		sb.WriteString(": ")
		sb.WriteString(t.vals[i].String())
	}
	sb.WriteByte('>')
	return sb.String()
}
