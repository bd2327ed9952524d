package core

import "repro/internal/relation"

// mergeSorted merges per-shard query results — each already de-duplicated
// and in the canonical order relation.SortTuples produces — into one sorted,
// de-duplicated slice. The same full tuple lives in exactly one shard, but
// projections of different tuples can collide across shards, so equal
// tuples collapse to one result. Merging the pre-sorted parts keeps fan-out
// query results deterministic without re-sorting the union.
//
// Every part is the answer of one plan to one query, so all tuples share one
// domain by construction: Compare orders them by value alone, and never
// meets the mixed-domain case SortTuples also handles. The merged output is
// ascending, so a duplicate — wherever it sat in its part — is exactly a
// tuple equal to the one emitted last.
//
// The shard count is small (typically ≤ 64), so a linear scan for the
// minimum head beats a heap: the constant factor is a handful of value
// compares per emitted tuple.
func mergeSorted(parts [][]relation.Tuple) []relation.Tuple {
	nonEmpty, total := 0, 0
	last := -1
	for i, p := range parts {
		if len(p) > 0 {
			nonEmpty++
			total += len(p)
			last = i
		}
	}
	switch nonEmpty {
	case 0:
		return []relation.Tuple{}
	case 1:
		return parts[last]
	}
	res := make([]relation.Tuple, 0, total)
	idx := make([]int, len(parts))
	for {
		min := -1
		for i, p := range parts {
			if idx[i] < len(p) && (min < 0 || p[idx[i]].Compare(parts[min][idx[min]]) < 0) {
				min = i
			}
		}
		if min < 0 {
			return res
		}
		t := parts[min][idx[min]]
		idx[min]++
		if n := len(res); n == 0 || !res[n-1].EqualValues(t) {
			res = append(res, t)
		}
	}
}
