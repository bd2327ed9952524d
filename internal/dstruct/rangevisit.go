package dstruct

import (
	"repro/internal/colblock"
	"repro/internal/value"
)

// WordRanger is the optional interface of ordered containers that can visit
// only the entries whose first key word lies in [lo, hi] without touching
// the rest. The range-query extension of package plan (§2 of the paper
// calls order-based queries a straightforward extension of the
// equality-only interface) uses it to turn O(n) filtered scans into
// O(log n + k) range scans.
//
// lo and hi are inclusive bounds on the value the first key word encodes;
// nil means unbounded on that side. They are values, not codes: a bound need
// not be a value the dictionary has ever seen.
type WordRanger[V any] interface {
	RangeBetween(vw colblock.View, lo, hi *value.Value, f func(k []colblock.Code, v V) bool)
}

// between reports lo ≤ c ≤ hi: the filter an unordered container applies
// where an ordered one seeks.
func between(vw colblock.View, c colblock.Code, lo, hi *value.Value) bool {
	return (lo == nil || vw.CompareValue(c, *lo) >= 0) && (hi == nil || vw.CompareValue(c, *hi) <= 0)
}

// AppendEntriesBetween is AppendEntries restricted to the entries whose
// first key word lies in [lo, hi]: the bulk extraction under a vectorized
// range scan. An ordered container seeks — RangeBetween touches only the
// entries it appends — while an unordered one is extracted whole and
// filtered in place. The fault wrapper forwards WordRanger over either kind,
// so under injection this crosses the same single range point a Range sweep
// would.
func AppendEntriesBetween[V any](m Words[V], vw colblock.View, lo, hi *value.Value, ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	if r, ok := m.(WordRanger[V]); ok {
		r.RangeBetween(vw, lo, hi, func(k []colblock.Code, v V) bool {
			ks, vs = append(ks, k...), append(vs, v)
			return true
		})
		return ks, vs
	}
	a := m.Arity()
	w := len(vs)
	ks, vs = m.AppendEntries(ks, vs)
	for i := w; i < len(vs); i++ {
		if between(vw, ks[i*a], lo, hi) {
			copy(ks[w*a:(w+1)*a], ks[i*a:(i+1)*a])
			vs[w] = vs[i]
			w++
		}
	}
	return ks[:w*a], vs[:w]
}
