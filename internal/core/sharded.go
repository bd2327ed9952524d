package core

import (
	"fmt"
	"runtime"

	"repro/internal/decomp"
	"repro/internal/relation"
	"repro/internal/wal"
)

// DefaultShards is the shard count used when ShardOptions leaves it zero.
const DefaultShards = 16

// ShardOptions configures NewSharded.
type ShardOptions struct {
	// ShardKey names the columns whose values choose a tuple's shard: an
	// operation whose pattern binds them all touches exactly one shard, and
	// the rest fan out. It need not be a key (a namespace, say, groups
	// related tuples on one shard) if it lies inside the left side of every
	// FD: two tuples an FD could set in conflict then share a shard, whose
	// FD check sees both, and no FD determines a shard-key column, so every
	// key — every update pattern — binds the whole shard key. A key is
	// accepted too; if it fails that test, tuples in conflict under another
	// FD can sit on two shards, which only CheckInvariants sees. Either way
	// an update may not assign a shard-key column, so no update moves a
	// tuple off its shard.
	ShardKey []string

	// Shards is the number of partitions (default DefaultShards). More
	// shards mean finer write serialization; queries that cannot be routed
	// pay a wider fan-out.
	Shards int

	// Workers bounds the goroutines a fan-out query or batch uses
	// (default GOMAXPROCS). Workers == 1 degenerates to a sequential scan
	// over the shards with no goroutine overhead.
	Workers int
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
	if !spec.FDs.IsKey(key, spec.Cols()) {
		for _, f := range spec.FDs.All() {
			if !f.To.SubsetOf(f.From) && !key.SubsetOf(f.From) {
				return nil, fmt.Errorf("core: shard key %v of relation %q is neither a key nor inside the left side of FD %v", key, spec.Name, f)
			}
		}
	}
	sr := &ShardedRelation{engine{
		spec:  spec,
		ro:    &router{key: key, shards: opts.Shards},
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
// writer mutex and publishes as a single version; the read is Query and
// the write Update, the paths every other caller takes.
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
	res, err := next.Query(pat, sr.spec.Cols().Names())
	if err != nil {
		return err
	}
	var cur relation.Tuple
	if len(res) > 0 {
		cur = res[0]
	}
	u, err := f(cur, len(res) > 0)
	if err != nil {
		return err
	}
	if len(res) == 0 {
		changed, ierr := next.insert(pat.Merge(u))
		return sh.commit(next, changed, wal.Commit{}, ierr)
	}
	n, err := next.Update(pat, u)
	return sh.commit(next, n > 0, wal.Commit{}, err)
}
