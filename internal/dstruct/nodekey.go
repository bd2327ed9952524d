package dstruct

import (
	"unsafe"

	"repro/internal/colblock"
)

// nodeKey is a key as the node-shaped bodies (tree and skip-list nodes)
// hold it: the first word inline and, for the rare key of more than one
// column, the remaining words behind one pointer — so the single-column key
// every common edge has costs its node one word.
type nodeKey struct {
	k0   colblock.Code
	rest *[]colblock.Code
}

// makeNodeKey copies k into a nodeKey.
func makeNodeKey(k []colblock.Code) nodeKey {
	if len(k) == 1 {
		return nodeKey{k0: k[0]}
	}
	rest := append([]colblock.Code(nil), k[1:]...)
	return nodeKey{k0: k[0], rest: &rest}
}

// eq reports whether the key's words are k's.
func (nk *nodeKey) eq(k []colblock.Code) bool {
	if nk.k0 != k[0] {
		return false
	}
	if nk.rest != nil {
		for i, c := range *nk.rest {
			if c != k[i+1] {
				return false
			}
		}
	}
	return true
}

// cmpTo orders k against the key, as the values they encode order.
func (nk *nodeKey) cmpTo(vw colblock.View, k []colblock.Code) int {
	if k[0] != nk.k0 {
		if r := vw.Compare(k[0], nk.k0); r != 0 {
			return r
		}
	}
	if nk.rest != nil {
		return vw.CompareKeys(k[1:], *nk.rest)
	}
	return 0
}

// appendTo appends the key's words to dst.
func (nk *nodeKey) appendTo(dst []colblock.Code) []colblock.Code {
	dst = append(dst, nk.k0)
	if nk.rest != nil {
		dst = append(dst, *nk.rest...)
	}
	return dst
}

// bytes is the heap a key holds outside its node.
func (nk *nodeKey) bytes() int {
	if nk.rest == nil {
		return 0
	}
	return AllocSize(3*wordBytes) + codesBytes(*nk.rest)
}

// sizeOf is the size of a V, for Footprint.
func sizeOf[V any]() int {
	var zero V
	return int(unsafe.Sizeof(zero))
}
