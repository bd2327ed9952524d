package core

import (
	"fmt"
	"runtime"

	"repro/internal/decomp"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/wal"
)

// DefaultShards is the shard count used when ShardOptions leaves it zero.
const DefaultShards = 16

// ShardOptions configures NewSharded.
type ShardOptions struct {
	// ShardKey names the columns whose values choose a tuple's shard. The
	// FD machinery validates the choice: unless AllowNonKey is set, the
	// spec's FDs must imply ShardKey → all columns, so that every keyed
	// operation — and in particular every update pattern extending the
	// shard key — touches exactly one shard.
	ShardKey []string

	// Shards is the number of partitions (default DefaultShards). More
	// shards mean finer write serialization; queries that cannot be routed
	// pay a wider fan-out.
	Shards int

	// Workers bounds the goroutines a fan-out query or batch uses
	// (default GOMAXPROCS). Workers == 1 degenerates to a sequential scan
	// over the shards with no goroutine overhead.
	Workers int

	// AllowNonKey permits shard keys that the FDs do not certify as keys.
	// Routing stays correct — a tuple's shard depends only on its
	// shard-key values — but point queries lose the single-result fast
	// path, and updates whose patterns do not bind the shard key fan out.
	AllowNonKey bool
}

// ShardedRelation is the concurrent engine tier above SyncRelation: the
// engine body (see engine) over N cells that hash-partition tuples on a
// shard-key column subset. Each shard is an MVCC cell (see cell) — an
// immutable published version behind an atomic pointer with a per-shard
// writer mutex — so reads are lock-free everywhere, and writes on disjoint
// keys proceed without contention: operations that bind the whole shard
// key route to exactly one shard, and the rest fan out.
//
// All shards share one decomposition, one spec, and one read-mostly plan
// cache — plans are shape-identical across shards and versions, so each
// query shape is planned once for the whole engine, not once per shard
// or per version.
type ShardedRelation struct {
	engine
}

// NewSharded builds a sharded engine over the given decomposition. Every
// shard gets its own decomposition instance; the decomposition and spec
// themselves are immutable at run time and shared.
func NewSharded(spec *Spec, d *decomp.Decomp, opts ShardOptions) (*ShardedRelation, error) {
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	key := relation.NewCols(opts.ShardKey...)
	if key.IsEmpty() {
		return nil, fmt.Errorf("core: sharded relation needs a non-empty shard key")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !key.SubsetOf(spec.Cols()) {
		return nil, fmt.Errorf("core: shard key %v is not a subset of relation columns %v", key, spec.Cols())
	}
	keyed := spec.FDs.IsKey(key, spec.Cols())
	if !keyed && !opts.AllowNonKey {
		return nil, fmt.Errorf("core: shard key %v is not a key of relation %q under its FDs (set AllowNonKey to shard on a non-key subset)", key, spec.Name)
	}
	sr := &ShardedRelation{engine{
		spec:  spec,
		ro:    &router{key: key, shards: opts.Shards},
		keyed: keyed,
		sem:   make(chan struct{}, opts.Workers),
		cells: make([]cell, opts.Shards),
	}}
	shared := newPlanCache()
	for i := range sr.cells {
		r, err := New(spec, d)
		if err != nil {
			return nil, err
		}
		r.plans = shared
		sr.cells[i].init(r)
	}
	return sr, nil
}

// NumShards returns the partition count.
func (sr *ShardedRelation) NumShards() int { return len(sr.cells) }

// Shard exposes one partition's currently published version for tests and
// profiling. The handle is an immutable snapshot: the caller must not
// mutate it, and later writes to the sharded engine publish new versions
// this handle will never reflect. (Configuration knobs like CheckFDs may
// still be set through it before the engine is shared — version forks
// inherit them.)
//
//relvet:role=read
func (sr *ShardedRelation) Shard(i int) *Relation { return sr.cells[i].cur.Load() }

// Upsert atomically reads the tuple matching the routed pattern pat and
// inserts or updates it: f receives the current tuple (zero when absent)
// and returns the non-pattern column values to store — the update tuple
// when the match exists, the remainder of the new tuple otherwise. The
// whole read-modify-write runs on one fork under the owning shard's
// writer mutex and publishes as a single version, and both the read and
// the write take the compiled point paths when the shard key is
// FD-certified, so a counter increment costs two map descents, not two
// generic plan executions.
func (sr *ShardedRelation) Upsert(pat relation.Tuple, f func(cur relation.Tuple, found bool) (relation.Tuple, error)) (uerr error) {
	defer containRead("upsert", &uerr)
	i, err := sr.ro.mustRoute(pat)
	if err != nil {
		return err
	}
	sr.routed()
	if sr.metrics != nil {
		sr.metrics.Upserts.Add(1)
	}
	sh := &sr.cells[i]
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	next, err := sh.fork()
	if err != nil {
		return err
	}
	cols := sr.spec.Cols().Names()
	var cur relation.Tuple
	found := false
	if sr.keyed {
		res, err := next.queryPoint(pat, cols)
		if err != nil {
			return err
		}
		if len(res) > 0 {
			cur, found = res[0], true
		}
	} else {
		if err := next.QueryFunc(pat, cols, func(t relation.Tuple) bool {
			cur, found = t.Project(t.Dom()), true
			return false
		}); err != nil {
			return err
		}
	}
	u, err := f(cur, found)
	if err != nil {
		return err
	}
	if !found {
		changed, ierr := next.insert(pat.Merge(u))
		return sh.commit(next, changed, wal.Commit{}, ierr)
	}
	var n int
	if sr.keyed {
		n, err = next.updatePoint(pat, u)
	} else {
		n, err = next.Update(pat, u)
	}
	return sh.commit(next, n > 0, wal.Commit{}, err)
}

// queryPoint is Relation.Query specialized to superkey patterns: at most
// one tuple extends the pattern, so the dedup map, canonical-key encoding,
// and sort are all skipped. When the chosen plan compiled to a PointPlan the
// whole query runs as a flat map descent; otherwise the streaming ladder
// (Relation.run) runs with an early stop. ShardedRelation uses it for
// routed queries once construction has certified the shard key as a key.
func (r *Relation) queryPoint(s relation.Tuple, out []string) (res []relation.Tuple, err error) {
	defer containRead("query", &err)
	if r.metrics != nil {
		r.metrics.QueryPoint.Add(1)
	}
	if err := r.spec.CheckTuple(s, false); err != nil {
		return nil, err
	}
	outCols := r.plans.outCols(out)
	if !outCols.SubsetOf(r.spec.Cols()) {
		return nil, fmt.Errorf("core: query output %v not in relation columns", outCols)
	}
	cand, err := r.planFor(s.Dom(), outCols)
	if err != nil {
		return nil, err
	}
	if pp := cand.Point; pp != nil {
		if r.metrics != nil {
			r.metrics.ExecPoint.Add(1)
		}
		u, ok := pp.Get(r.inst, s)
		if !ok {
			return nil, nil
		}
		// When the leaf unit's domain is exactly the output columns, the
		// unit tuple IS the result: π_out(s ▷ u) = u (u is right-biased over
		// s, and tuples are immutable, so sharing it is safe). This is the
		// common shape for keyed point reads of the payload columns.
		if u.Dom().Equal(outCols) {
			return []relation.Tuple{u}, nil
		}
		if res, ok := s.MergeProject(u, outCols); ok {
			return []relation.Tuple{res}, nil
		}
	}
	r.run(cand, s, plan.Range{}, outCols, streamViews, func(t relation.Tuple) bool {
		res = append(res, t.Project(outCols))
		return false // a superkey pattern matches at most one tuple
	})
	return res, nil
}

// updatePoint is Relation.Update specialized for callers that have already
// certified the pattern as a superkey — ShardedRelation validates its shard
// key against the FDs once at construction, so the per-operation key check
// is redundant for routed updates. The match is located with the compiled
// point plan and the new values are written in place when the decomposition
// allows; anything the fast path cannot handle falls back to the generic
// Update.
func (r *Relation) updatePoint(s, u relation.Tuple) (n int, err error) {
	// One logical update regardless of which path applies it; the fallbacks
	// below go through the uncounted update to avoid double counting.
	if r.metrics != nil {
		r.metrics.Updates.Add(1)
	}
	if r.CheckFDs {
		return r.update(s, u)
	}
	if r.poisoned {
		return 0, ErrPoisoned
	}
	defer r.containMut("update", &err)
	if err := r.spec.CheckTuple(s, false); err != nil {
		return 0, err
	}
	if err := r.spec.CheckTuple(u, false); err != nil {
		return 0, err
	}
	if s.Dom().Intersects(u.Dom()) {
		return 0, fmt.Errorf("core: update values %v overlap the pattern %v", u, s)
	}
	cand, err := r.planFor(s.Dom(), r.spec.Cols())
	if err != nil {
		return 0, err
	}
	pp := cand.Point
	if pp == nil {
		return r.update(s, u)
	}
	if r.metrics != nil {
		r.metrics.ExecPoint.Add(1)
	}
	unit, ok := pp.Get(r.inst, s)
	if !ok {
		return 0, nil
	}
	// When the pattern itself binds every map-edge key, it can drive the
	// in-place walk directly — no full match tuple is ever built. pp.Get
	// above proved the match exists.
	if r.inst.EdgeKeyCols().SubsetOf(s.Dom()) {
		ok, uerr := r.inst.UpdateInPlace(s, u)
		if uerr != nil {
			return 0, uerr
		}
		if ok {
			return 1, nil
		}
	}
	match, ok := s.MergeProject(unit, r.spec.Cols())
	if !ok {
		return r.update(s, u)
	}
	ok, uerr := r.inst.UpdateInPlace(match, u)
	if uerr != nil {
		return 0, uerr
	}
	if ok {
		return 1, nil
	}
	return r.replace(match, match.Merge(u))
}
