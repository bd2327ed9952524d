package relation

import "repro/internal/value"

// HashShard returns a stable 64-bit hash of t's values on the columns of
// key, in key's (sorted) column order, and reports whether t binds every
// key column. It hashes the same byte stream appendValuesKey would encode
// for the projection π_key(t), but without materializing the projection or
// the encoding — shard routing must not allocate per operation.
//
// The hash depends only on the key columns' values (not on any extra
// columns t binds), so a full tuple and a pattern binding the same key
// values always route identically.
func (t Tuple) HashShard(key Cols) (uint64, bool) {
	h := value.HashSeed
	i := 0
	for _, c := range key.names {
		for i < len(t.cols) && t.cols[i] < c {
			i++
		}
		if i == len(t.cols) || t.cols[i] != c {
			return 0, false
		}
		h = t.vals[i].HashInto(h)
	}
	return h, true
}
