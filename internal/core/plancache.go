package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/fd"
	"repro/internal/plan"
	"repro/internal/relation"
)

// planCache memoizes query plans per (input, output) column signature. It
// is read-mostly and shared: every query consults it, concurrent misses on
// the same shape must not stampede the planner (a fan-out across N shards
// would otherwise plan the same shape N times), and a ShardedRelation's
// shards — whose plans are shape-identical because they share one
// decomposition — all point at a single cache.
//
// Reads go through an atomic copy-on-write map, so a cache hit takes no
// lock at all; this keeps the plan lookup off the contention path that the
// sharded engine exists to eliminate. Writes and in-flight deduplication
// (singleflight) serialize on a mutex, which is fine: each distinct query
// shape is planned exactly once per cache lifetime.
type planCache struct {
	plans atomic.Pointer[map[string]*plan.Candidate]

	// cols caches []string → relation.Cols conversions keyed by the names
	// joined in caller order. Queries pass output columns as a []string on
	// every call; the set of distinct shapes is as small as the set of plan
	// shapes, so the conversion's sort+dedup allocation is paid once per
	// shape instead of once per operation.
	cols atomic.Pointer[map[string]relation.Cols]

	mu       sync.Mutex
	inflight map[string]*planCall

	// unseen are the FDs the instance's insert walk cannot see, which
	// writes check by query (unseenFDs). They are fixed by the
	// decomposition, so they live here, with the rest of what every version
	// and shard of one relation shares, and not on each version.
	unseen []fd.FD
}

// planCall is one in-flight planning computation; waiters block on done.
type planCall struct {
	done chan struct{}
	c    *plan.Candidate
	err  error
}

func newPlanCache(unseen []fd.FD) *planCache {
	pc := &planCache{inflight: make(map[string]*planCall), unseen: unseen}
	empty := make(map[string]*plan.Candidate)
	pc.plans.Store(&empty)
	emptyCols := make(map[string]relation.Cols)
	pc.cols.Store(&emptyCols)
	return pc
}

// outCols converts an output column list to a Cols set through the cache: a
// hit builds the lookup key in a stack buffer and allocates nothing.
//
//relvet:role=cachefill
func (pc *planCache) outCols(out []string) relation.Cols {
	var arr [96]byte
	buf := arr[:0]
	for i, n := range out {
		if i > 0 {
			buf = append(buf, 0)
		}
		buf = append(buf, n...)
	}
	if c, ok := (*pc.cols.Load())[string(buf)]; ok {
		return c
	}
	c := relation.NewCols(out...)
	pc.mu.Lock()
	old := *pc.cols.Load()
	next := make(map[string]relation.Cols, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[string(buf)] = c
	pc.cols.Store(&next)
	pc.mu.Unlock()
	return c
}

// get returns the cached plan for sig, if any. sig may be a string(buf)
// conversion of a scratch buffer: lookups do not retain it.
func (pc *planCache) get(sig string) (*plan.Candidate, bool) {
	c, ok := (*pc.plans.Load())[sig]
	return c, ok
}

// do returns the plan for sig, computing it with f at most once across all
// concurrent callers (other callers block until the first finishes).
// Planning errors are returned to every waiter but not cached: a failed
// shape stays re-plannable, and error shapes are rejected upstream anyway.
//
//relvet:role=cachefill
func (pc *planCache) do(sig string, f func() (*plan.Candidate, error)) (*plan.Candidate, error) {
	if c, ok := pc.get(sig); ok {
		return c, nil
	}
	pc.mu.Lock()
	if c, ok := pc.get(sig); ok { // re-check: a writer may have published
		pc.mu.Unlock()
		return c, nil
	}
	if call, ok := pc.inflight[sig]; ok {
		pc.mu.Unlock()
		<-call.done
		return call.c, call.err
	}
	call := &planCall{done: make(chan struct{})}
	pc.inflight[sig] = call
	pc.mu.Unlock()

	call.c, call.err = f()

	pc.mu.Lock()
	delete(pc.inflight, sig)
	if call.err == nil {
		old := *pc.plans.Load()
		next := make(map[string]*plan.Candidate, len(old)+1)
		for k, v := range old {
			next[k] = v
		}
		next[sig] = call.c
		pc.plans.Store(&next)
	}
	pc.mu.Unlock()
	close(call.done)
	return call.c, call.err
}

// reset drops every cached plan (Reprofile changes the cost statistics, so
// previously optimal plans may no longer be).
func (pc *planCache) reset() {
	pc.mu.Lock()
	empty := make(map[string]*plan.Candidate)
	pc.plans.Store(&empty)
	pc.mu.Unlock()
}
