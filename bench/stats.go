package main

import "slices"

// percentile returns the q-quantile (nearest rank) of xs, or 0 when xs is
// empty. It sorts a copy.
func percentile[T int64 | uint32 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// pooledStats is the p50 and p99, in microseconds, of nanosecond samples
// taken as one pool.
func pooledStats(xs []uint32) latStats {
	return latStats{p50: percentile(xs, 0.50) / 1e3, p99: percentile(xs, 0.99) / 1e3, n: len(xs)}
}
