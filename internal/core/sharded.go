package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/decomp"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
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

// ShardedRelation is the concurrent engine tier above SyncRelation: it
// hash-partitions tuples across N per-shard Relation instances on a
// shard-key column subset. Each shard is an MVCC cell (see cell) — an
// immutable published version behind an atomic pointer with a per-shard
// writer mutex — so reads are lock-free everywhere, and writes on
// disjoint keys proceed without contention: operations that bind the
// whole shard key route to exactly one shard, and queries that do not
// bind the shard key fan out across all shards' snapshots on a bounded
// worker pool, merging their (per-shard sorted, de-duplicated) results
// deterministically. A fan-out query pins each shard's version as it
// visits it; it does not freeze the whole engine, so cross-shard reads
// are per-shard snapshot-consistent, not globally serialized.
//
// All shards share one decomposition, one spec, and one read-mostly plan
// cache — plans are shape-identical across shards and versions, so each
// query shape is planned once for the whole engine, not once per shard
// or per version.
type ShardedRelation struct {
	spec  *Spec
	ro    *router
	keyed bool // the FDs certify the shard key as a key
	sem   chan struct{}

	// metrics is the sharded tier's own view of the sink every shard also
	// holds (SetMetrics); it feeds the routing counters and the fan-out
	// latency histogram. Nil when observability is off.
	metrics *obs.Metrics

	shards []cell
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
	sr := &ShardedRelation{
		spec:   spec,
		ro:     &router{key: key, shards: opts.Shards},
		keyed:  keyed,
		sem:    make(chan struct{}, opts.Workers),
		shards: make([]cell, opts.Shards),
	}
	shared := newPlanCache()
	for i := range sr.shards {
		r, err := New(spec, d)
		if err != nil {
			return nil, err
		}
		r.plans = shared
		sr.shards[i].init(r)
	}
	return sr, nil
}

// MustNewSharded is NewSharded for statically known-good configurations; it
// panics on error. Use in examples and fixtures only.
func MustNewSharded(spec *Spec, d *decomp.Decomp, opts ShardOptions) *ShardedRelation {
	sr, err := NewSharded(spec, d, opts)
	if err != nil {
		panic(err)
	}
	return sr
}

// Spec returns the relational specification.
func (sr *ShardedRelation) Spec() *Spec { return sr.spec }

// ShardKey returns the column subset tuples are partitioned on.
func (sr *ShardedRelation) ShardKey() relation.Cols { return sr.ro.key }

// NumShards returns the partition count.
func (sr *ShardedRelation) NumShards() int { return len(sr.shards) }

// Shard exposes one partition's currently published version for tests and
// profiling. The handle is an immutable snapshot: the caller must not
// mutate it, and later writes to the sharded engine publish new versions
// this handle will never reflect. (Configuration knobs like CheckFDs may
// still be set through it before the engine is shared — version forks
// inherit them.)
//
//relvet:role=read
func (sr *ShardedRelation) Shard(i int) *Relation { return sr.shards[i].cur.Load() }

// SetMetrics attaches one shared metrics sink to every shard and to the
// sharded tier's routing counters. Counters are atomic, so the shards can
// increment the shared block without coordination.
//
//relvet:role=config
func (sr *ShardedRelation) SetMetrics(m *obs.Metrics) {
	sr.metrics = m
	sr.config(func(r *Relation) { r.SetMetrics(m) })
}

// SetTracer attaches one tracer to every shard. The tracer receives events
// from fan-out workers concurrently.
func (sr *ShardedRelation) SetTracer(t obs.Tracer) {
	sr.config(func(r *Relation) { r.SetTracer(t) })
}

// config applies a configuration knob to every shard's published version.
func (sr *ShardedRelation) config(set func(*Relation)) {
	for i := range sr.shards {
		sr.shards[i].config(set)
	}
}

// NumCells is the shard count: each shard is one cell.
func (sr *ShardedRelation) NumCells() int { return len(sr.shards) }

func (sr *ShardedRelation) cellAt(i int) *cell { return &sr.shards[i] }

// Metrics returns the attached metrics sink, or nil.
func (sr *ShardedRelation) Metrics() *obs.Metrics { return sr.metrics }

// routed records one operation that touched exactly one shard.
func (sr *ShardedRelation) routed() {
	if sr.metrics != nil {
		sr.metrics.RoutedOps.Add(1)
	}
}

// Insert implements insert r t: the full tuple always binds the shard key,
// so exactly one shard's writers serialize; readers are never blocked.
func (sr *ShardedRelation) Insert(t relation.Tuple) error {
	i, err := sr.ro.mustRoute(t)
	if err != nil {
		return err
	}
	sr.routed()
	return sr.shards[i].insert(t)
}

// Remove implements remove r s. A pattern binding the whole shard key
// removes on one shard; any other pattern fans out — tuples are
// partitioned, so per-shard removal counts sum without double counting.
// A shard whose removal fails drops its fork (readers keep its pre-remove
// version) and contributes zero to the count.
func (sr *ShardedRelation) Remove(pat relation.Tuple) (int, error) {
	if i, ok := sr.ro.route(pat); ok {
		sr.routed()
		return sr.shards[i].remove(pat)
	}
	return sr.fanOutSum(func(_ int, sh *cell) (int, error) { return sh.remove(pat) })
}

// Update implements the keyed dupdate. When the pattern binds the shard
// key the update touches exactly one shard (this is what the construction
// -time FD validation guarantees for key-routed workloads) — and when the
// shard key is FD-certified such a pattern is a superkey, so the cell may
// skip the per-operation key check and take the compiled point-update
// path. Otherwise every shard checks the pattern, and since the pattern
// must be a key of the relation at most one shard finds a match.
func (sr *ShardedRelation) Update(s, u relation.Tuple) (int, error) {
	if i, ok := sr.ro.route(s); ok {
		sr.routed()
		return sr.shards[i].update(s, u, sr.keyed)
	}
	return sr.fanOutSum(func(_ int, sh *cell) (int, error) { return sh.update(s, u, false) })
}

// Query implements query r s C, lock-free. Patterns binding the shard key
// read one shard's snapshot; when the shard key is FD-certified such a
// pattern is a superkey, so at most one tuple matches and the dedup map
// and sort are skipped entirely (the point-query fast path). Other
// patterns fan out in parallel over the shards' snapshots: each shard's
// answer stays sorted, de-duplicated code rows, and the merge boxes each
// result row once (plan.Merge).
//
//relvet:role=read
func (sr *ShardedRelation) Query(pat relation.Tuple, out []string) ([]relation.Tuple, error) {
	if i, ok := sr.ro.route(pat); ok {
		sr.routed()
		r := sr.shards[i].snapshot()
		if sr.keyed {
			return r.queryPoint(pat, out)
		}
		return r.Query(pat, out)
	}
	parts := make([]plan.Part, len(sr.shards))
	err := sr.fanOut(func(i int, sh *cell) (err error) {
		parts[i], err = sh.snapshot().query(pat, out, true)
		return err
	})
	return merged(parts, err)
}

// QueryFunc streams π_C of matching tuples like Relation.QueryFunc: no
// de-duplication, shard-by-shard order. A routed pattern streams one
// shard's snapshot; otherwise shards stream sequentially, each pinning its
// snapshot as the stream reaches it. The iteration holds no lock, so the
// callback may mutate the sharded engine freely: mutations publish new
// per-shard versions that the in-flight stream does not observe — a shard
// already pinned keeps streaming its version, and a shard visited later is
// pinned at whatever version is current when the stream gets there.
//
//relvet:role=read
func (sr *ShardedRelation) QueryFunc(pat relation.Tuple, out []string, f func(relation.Tuple) bool) error {
	if i, ok := sr.ro.route(pat); ok {
		sr.routed()
		return sr.shards[i].snapshot().QueryFunc(pat, out, f)
	}
	// The sequential broadcast is still a fan-out for accounting: it visits
	// every shard for one logical operation.
	if m := sr.metrics; m != nil {
		m.FanOuts.Add(1)
		start := time.Now()
		defer func() { m.FanOutLatency.Observe(time.Since(start)) }()
	}
	stopped := false
	for i := range sr.shards {
		err := sr.shards[i].snapshot().QueryFunc(pat, out, func(t relation.Tuple) bool {
			if !f(t) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil || stopped {
			return err
		}
	}
	return nil
}

// QueryRange implements the order-based query, lock-free: routed patterns
// read one shard's snapshot, others fan out and merge like Query.
//
//relvet:role=read
func (sr *ShardedRelation) QueryRange(pat relation.Tuple, col string, lo, hi *value.Value, out []string) ([]relation.Tuple, error) {
	if i, ok := sr.ro.route(pat); ok {
		sr.routed()
		return sr.shards[i].snapshot().QueryRange(pat, col, lo, hi, out)
	}
	parts := make([]plan.Part, len(sr.shards))
	err := sr.fanOut(func(i int, sh *cell) (err error) {
		parts[i], err = sh.snapshot().queryRange(pat, col, lo, hi, out, true)
		return err
	})
	return merged(parts, err)
}

// merged is the answer of a set-valued fan-out whose cells left their parts
// in parts: one sorted, de-duplicated result, each row boxed once
// (plan.Merge). On error it releases every held part instead.
func merged(parts []plan.Part, err error) ([]relation.Tuple, error) {
	if err != nil {
		for _, p := range parts {
			p.Release()
		}
		return nil, err
	}
	return plan.Merge(parts), nil
}

// InsertBatch inserts many tuples, grouping them by shard and applying
// each group on a single version fork — the per-op fork-and-publish of N
// inserts collapses to one version (and, on a durable engine, one log
// record) per touched shard, and distinct shards apply their groups in
// parallel. Each shard's group is atomic: on error the failing shard drops
// its fork (readers keep the pre-batch version) and returns the first
// error (by shard index), while the other shards' groups publish
// independently — a failing shard never strands its peers mid-batch.
func (sr *ShardedRelation) InsertBatch(ts []relation.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	groups := make([][]relation.Tuple, len(sr.shards))
	for _, t := range ts {
		i, err := sr.ro.mustRoute(t)
		if err != nil {
			return err
		}
		groups[i] = append(groups[i], t)
	}
	return sr.fanOut(func(i int, sh *cell) error { return sh.insertBatch(groups[i]) })
}

// RemoveBatch removes by many patterns with one version fork per touched
// shard. Patterns binding the shard key go only to their shard; broadcast
// patterns run on every shard. It returns the total number of tuples
// removed. Like InsertBatch, each shard's group is atomic: a shard whose
// group fails drops its fork and contributes zero to the count, without
// disturbing the other shards' groups.
func (sr *ShardedRelation) RemoveBatch(pats []relation.Tuple) (int, error) {
	if len(pats) == 0 {
		return 0, nil
	}
	groups := sr.ro.group(pats)
	return sr.fanOutSum(func(i int, sh *cell) (int, error) { return sh.removeBatch(groups[i]) })
}

// ApplyCommits replays the records src hands over, routing each by its
// tuples. Deltas produced by the durable write path route whole to one shard
// whenever this engine shares the writer's shard key (mutations preserve key
// columns), and consecutive records that route whole to the same shard are
// one run: one fork, one publish (cell.apply). The run ends at the first
// record that routes anywhere else, which is pulled while the run's fork is
// still open and held over to start the next one — so every publish moves
// the engine from one exact prefix of the stream to a longer one, whatever
// the interleaving. Under a different key or count a delta may split; a
// split record is applied on its own, each shard's piece as its own atomic
// version, removals before insertions, and readers get the sharded tier's
// documented per-shard snapshot consistency. A replication follower uses it
// to keep a replica whose layout differs from the publisher's.
func (sr *ShardedRelation) ApplyCommits(src CommitSource) (int, error) {
	var (
		published int
		rec       wal.Commit // the record pulled last
		at        int        // the shard rec routes whole to; -1 when it splits
		held      bool       // rec ended a run it does not belong to: it starts the next
	)
	pull := func() (ok bool, err error) {
		if rec, ok, err = src(); err != nil || !ok {
			return false, err
		}
		at, err = sr.routeWhole(rec)
		return err == nil, err
	}
	for {
		if !held {
			if ok, err := pull(); err != nil || !ok {
				return published, err
			}
		}
		held = false
		if at < 0 {
			if err := sr.applySplit(rec); err != nil {
				return published, err
			}
			published++
			continue
		}
		run, first := at, true
		n, err := sr.shards[run].apply(func() (wal.Commit, bool, error) {
			if first {
				first = false
				return rec, true, nil
			}
			if ok, err := pull(); err != nil || !ok {
				return wal.Commit{}, false, err
			}
			held = at != run
			return rec, !held, nil
		})
		published += n
		// A run that ended on neither an error nor a held record ended
		// because src is dry.
		if err != nil || !held {
			return published, err
		}
	}
}

// ApplyCommit replays one logical delta: ApplyCommits for the one record c.
func (sr *ShardedRelation) ApplyCommit(c wal.Commit) error {
	_, err := sr.ApplyCommits(oneCommit(c))
	return err
}

// routeWhole returns the one shard every tuple of c routes to, or -1 when
// c splits across shards (or carries no tuple to route by).
func (sr *ShardedRelation) routeWhole(c wal.Commit) (int, error) {
	at := -1
	for _, ts := range [...][]relation.Tuple{c.Removed, c.Inserted} {
		for _, t := range ts {
			i, err := sr.ro.mustRoute(t)
			if err != nil {
				return -1, err
			}
			if at >= 0 && i != at {
				return -1, nil
			}
			at = i
		}
	}
	return at, nil
}

// applySplit replays a delta that spans shards: each shard's piece is its
// own atomic version, applied in shard order.
func (sr *ShardedRelation) applySplit(c wal.Commit) error {
	pieces := make(map[int]*wal.Commit)
	at := func(t relation.Tuple) (*wal.Commit, error) {
		i, err := sr.ro.mustRoute(t)
		if err != nil {
			return nil, err
		}
		p := pieces[i]
		if p == nil {
			p = &wal.Commit{Seq: c.Seq}
			pieces[i] = p
		}
		return p, nil
	}
	for _, t := range c.Removed {
		p, err := at(t)
		if err != nil {
			return err
		}
		p.Removed = append(p.Removed, t)
	}
	for _, t := range c.Inserted {
		p, err := at(t)
		if err != nil {
			return err
		}
		p.Inserted = append(p.Inserted, t)
	}
	for i := range sr.shards {
		if p := pieces[i]; p != nil {
			if err := sr.shards[i].applyOne(*p); err != nil {
				return err
			}
		}
	}
	return nil
}

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
	sh := &sr.shards[i]
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	next := sh.cur.Load().beginVersion()
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
			cur, found = t, true
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

// Exclusive runs f on a private fork of the shard owning pat's shard-key
// valuation, with that shard's writers excluded, giving atomic
// read-modify-write sequences (a counter upsert, say) without a global
// lock. The fork publishes as a single version when f returns nil and is
// dropped entirely when f returns an error or panics — the whole block is
// atomic even across several mutations, and concurrent readers never
// observe its intermediate states. pat must bind the whole shard key, and
// f must only touch tuples sharing pat's shard-key valuation — tuples
// routed to other shards are invisible to it.
func (sr *ShardedRelation) Exclusive(pat relation.Tuple, f func(*Relation) error) error {
	i, err := sr.ro.mustRoute(pat)
	if err != nil {
		return err
	}
	sr.routed()
	sh := &sr.shards[i]
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	next := sh.cur.Load().beginVersion()
	run := func() (ferr error) {
		defer containRead("exclusive", &ferr)
		return f(next)
	}
	return sh.commit(next, true, wal.Commit{}, run())
}

// Len returns the total number of tuples across all shards, lock-free.
// Per-shard counts come from each shard's published snapshot; the sum is
// a consistent total only when no writer is concurrent, like SyncRelation
// callers composing Len with later operations.
//
//relvet:role=read
func (sr *ShardedRelation) Len() int {
	n := 0
	for i := range sr.shards {
		n += sr.shards[i].cur.Load().Len()
	}
	return n
}

// CheckInvariants verifies every shard's published snapshot: instance
// well-formedness, that each tuple lives on the shard its key hashes to,
// and that the declared FDs hold on the union of the shard abstractions
// (per-shard FD checks cannot see cross-shard violations when the shard
// key is not a key). Each snapshot is immutable, so the walk needs no
// locks.
func (sr *ShardedRelation) CheckInvariants() error {
	all := relation.Empty(sr.spec.Cols())
	for i := range sr.shards {
		r := sr.shards[i].cur.Load()
		if err := r.CheckInvariants(); err != nil {
			return err
		}
		for _, t := range r.inst.Relation().All() {
			if j, ok := sr.ro.route(t); !ok || j != i {
				return fmt.Errorf("core: tuple %v found on shard %d but routes to shard %d", t, i, j)
			}
			if err := all.Insert(t); err != nil {
				return err
			}
		}
	}
	if !sr.spec.FDs.Holds(all) {
		return fmt.Errorf("core: union abstraction of sharded relation %q violates its FDs", sr.spec.Name)
	}
	return nil
}

// All returns every tuple across all shards in deterministic order.
func (sr *ShardedRelation) All() ([]relation.Tuple, error) {
	return sr.Query(relation.NewTuple(), sr.spec.Cols().Names())
}

// fanOut runs f once per shard on the bounded worker pool and returns the
// lowest-indexed error. With a single worker it degenerates to an inline
// sequential loop — no goroutines, no channel traffic. Each shard's work is
// wrapped in panic containment inside the worker itself: a panic in a
// goroutine cannot be recovered by the caller, so without this a single
// crashing shard would kill the process and strand its peers' locks.
func (sr *ShardedRelation) fanOut(f func(int, *cell) error) error {
	if m := sr.metrics; m != nil {
		m.FanOuts.Add(1)
		start := time.Now()
		defer func() { m.FanOutLatency.Observe(time.Since(start)) }()
	}
	run := func(i int) (err error) {
		defer containRead("shard fan-out", &err)
		return f(i, &sr.shards[i])
	}
	if cap(sr.sem) == 1 {
		var first error
		for i := range sr.shards {
			if err := run(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var wg sync.WaitGroup
	errs := make([]error, len(sr.shards))
	for i := range sr.shards {
		sr.sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() {
				<-sr.sem
				wg.Done()
			}()
			errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOutSum is fanOut for counting write bodies: it returns the total over
// the shards that succeeded alongside the lowest-indexed error.
func (sr *ShardedRelation) fanOutSum(f func(int, *cell) (int, error)) (int, error) {
	counts := make([]int, len(sr.shards))
	err := sr.fanOut(func(i int, sh *cell) (err error) {
		counts[i], err = f(i, sh)
		return err
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, err
}

// queryPoint is Relation.Query specialized to superkey patterns: at most
// one tuple extends the pattern, so the dedup map, canonical-key encoding,
// and sort are all skipped. When the chosen plan compiled to a PointPlan the
// whole query runs as a flat map descent; otherwise the streaming ladder
// (Relation.stream) runs with an early stop. ShardedRelation uses it for
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
	r.stream(cand, s, func(t relation.Tuple) bool {
		res = append(res, t.Project(outCols))
		return false // a superkey pattern matches at most one tuple
	}, nil)
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
