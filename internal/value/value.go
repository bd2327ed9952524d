// Package value defines the universe V of column values used by relational
// specifications: 64-bit integers and strings (the paper's universe includes
// the integers; strings make the case studies natural). Values are small,
// comparable with ==, totally ordered, and have a stable binary encoding that
// is used as a map key throughout the runtime.
package value

import (
	"fmt"
	"strconv"
)

// Kind discriminates the dynamic type of a Value.
type Kind uint8

// The two kinds of values in the universe V.
const (
	Int Kind = iota
	String
)

// String returns the name of the kind.
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// A Value is a single element of the universe V. The zero Value is the
// integer 0. Values are comparable with == and can be used as map keys.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// OfInt returns the integer value v.
func OfInt(v int64) Value { return Value{kind: Int, i: v} }

// OfString returns the string value s.
func OfString(s string) Value { return Value{kind: String, s: s} }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// Int returns the integer payload. It panics if v is not an integer; use
// Kind to test first when the kind is not statically known.
func (v Value) Int() int64 {
	if v.kind != Int {
		panic("value: Int called on " + v.kind.String() + " value")
	}
	return v.i
}

// AsInt is the comma-ok variant of Int: the integer payload and true, or
// (0, false) for a non-integer. Unlike Kind-test-then-Int it has no panic
// path, so it inlines into hot loops (the vectorized encode fast path).
func (v Value) AsInt() (int64, bool) {
	if v.kind != Int {
		return 0, false
	}
	return v.i, true
}

// Str returns the string payload. It panics if v is not a string.
func (v Value) Str() string {
	if v.kind != String {
		panic("value: Str called on " + v.kind.String() + " value")
	}
	return v.s
}

// Compare totally orders values: all integers precede all strings; integers
// order numerically and strings lexicographically. It returns -1, 0, or +1.
func Compare(a, b Value) int {
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case Int:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	default:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	}
}

// String renders the value for diagnostics: integers as decimal, strings
// quoted.
func (v Value) String() string {
	if v.kind == Int {
		return strconv.FormatInt(v.i, 10)
	}
	return strconv.Quote(v.s)
}

// AppendEncode appends a self-delimiting binary encoding of v to dst and
// returns the extended slice. Distinct values always have distinct
// encodings, and the encoding of a value is never a prefix of another
// value's encoding followed by arbitrary bytes within a well-formed stream,
// so concatenated encodings are unambiguous.
func (v Value) AppendEncode(dst []byte) []byte {
	if v.kind == Int {
		u := uint64(v.i)
		return append(dst, 'i',
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	n := len(v.s)
	dst = append(dst, 's',
		byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	return append(dst, v.s...)
}

// EncodedSize returns len(v.AppendEncode(nil)) without encoding: 9 bytes
// for an integer, 5+len(s) for a string. Callers use it to preallocate
// exact-capacity key buffers.
func (v Value) EncodedSize() int {
	if v.kind == Int {
		return 9
	}
	return 5 + len(v.s)
}

// HashInto folds v's encoding into a running FNV-1a hash h without
// allocating; seed with HashSeed. Feeding the same value sequence always
// yields the same hash, so it can key shard routing.
func (v Value) HashInto(h uint64) uint64 {
	const prime = 1099511628211
	if v.kind == Int {
		h ^= 'i'
		h *= prime
		u := uint64(v.i)
		for shift := 56; shift >= 0; shift -= 8 {
			h ^= (u >> shift) & 0xff
			h *= prime
		}
		return h
	}
	h ^= 's'
	h *= prime
	n := uint32(len(v.s))
	for shift := 24; shift >= 0; shift -= 8 {
		h ^= uint64((n >> shift) & 0xff)
		h *= prime
	}
	for i := 0; i < len(v.s); i++ {
		h ^= uint64(v.s[i])
		h *= prime
	}
	return h
}

// HashSeed is the FNV-1a offset basis used to start a HashInto chain.
const HashSeed uint64 = 14695981039346656037
