package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/decomp"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/wal"
)

// Engine is the one relational interface every concurrent tier presents —
// SyncRelation, ShardedRelation, and DurableRelation over either — and
// the only thing the layers above (DurableRelation, durable.Open,
// repl.Follower) know about the engine underneath them: the paper's
// insert/remove/update/query operations plus the metrics hook and the
// replay entry point. Every implementation is the one engine body
// underneath, which is what the unexported method pins. A method is on
// the interface only if a layer above calls it through an Engine or a
// tier-differential test drives every tier through it; Spec, SetTracer
// and Metrics are the concrete types' own.
type Engine interface {
	Insert(t relation.Tuple) error
	InsertBatch(ts []relation.Tuple) error
	Remove(pat relation.Tuple) (int, error)
	Update(pat, u relation.Tuple) (int, error)

	Query(pat relation.Tuple, out []string) ([]relation.Tuple, error)
	QueryFunc(pat relation.Tuple, out []string, f func(relation.Tuple) bool) error
	QueryRange(pat relation.Tuple, col string, lo, hi *value.Value, out []string) ([]relation.Tuple, error)
	Len() int
	All() ([]relation.Tuple, error)

	CheckInvariants() error
	ExplainQuery(input, output []string) (*QueryExplain, error)

	// SetMetrics attaches the metrics sink. Like the other configuration
	// knobs, attach before the engine is shared; version forks inherit it.
	SetMetrics(m *obs.Metrics)

	// ApplyCommits replays the logical deltas src hands over — tuples that
	// need not be partitioned for this engine's layout — strictly: every
	// removed tuple must be stored and every inserted tuple must be new. A
	// checkpoint or bootstrap chunk is the delta {Inserted: tuples}.
	//
	// Records are pulled one at a time and consecutive records that route
	// whole to the same cell share one fork and one publish, so a reader
	// sees the state move from one exact prefix of the stream to a longer
	// one and never anything in between; where a run ends is decided by the
	// records, not by the caller (a record that splits across cells is
	// applied on its own, atomically per cell). src runs with the open
	// run's cell locked and its fork unpublished: it may read the engine,
	// not write it. Any error — src's or a record that does not replay —
	// drops the open fork whole, and published says how many leading
	// records are visible to readers all the same; a panic in src
	// propagates after the same drop. A logged cell (DurableRelation)
	// forks, logs and publishes every record on its own: a shared fork
	// there would put records on the log whose version never published.
	ApplyCommits(src CommitSource) (published int, err error)

	// ApplyCommit is ApplyCommits for the one record c.
	ApplyCommit(c wal.Commit) error

	// NumCells is the number of MVCC cells underneath: 1 for a
	// SyncRelation, the shard count for a ShardedRelation.
	NumCells() int
	body() *engine
}

// NewEngine builds the MVCC engine a shard layout describes: a
// ShardedRelation partitioned on opts.ShardKey when one is given (Shards
// defaults to DefaultShards), a single-cell SyncRelation for the zero
// options. A shard count without a shard key describes neither and is
// rejected rather than quietly served from one cell.
func NewEngine(spec *Spec, d *decomp.Decomp, opts ShardOptions) (Engine, error) {
	if len(opts.ShardKey) > 0 {
		sr, err := NewSharded(spec, d, opts)
		if err != nil {
			return nil, err
		}
		return sr, nil
	}
	if opts.Shards > 0 {
		return nil, fmt.Errorf("core: %d shards requested without a shard key", opts.Shards)
	}
	r, err := New(spec, d)
	if err != nil {
		return nil, err
	}
	return NewSync(r), nil
}

// SetCheckFDs toggles per-mutation FD validation on every cell of e. Like
// the other configuration knobs it belongs to the pre-share window: call it
// before the engine is visible to concurrent readers, since version forks
// inherit the flag from the version they copy.
func SetCheckFDs(e Engine, on bool) {
	e.body().config(func(r *Relation) { r.CheckFDs = on })
}

// engine is the body of every concurrent tier: the relational surface
// written once over a set of MVCC cells (see cell) and an optional router.
// A SyncRelation is the body over one cell and no router, a
// ShardedRelation the body over one cell per shard, and a DurableRelation
// is either body with a write-ahead log attached to each cell. With no
// router every operation routes to cell 0 without hashing, counts no
// routing, and runs exactly the cell body.
//
// Under a router an operation that binds the whole shard key routes to one
// cell; anything else fans out over all cells on a bounded worker pool. A
// fan-out pins each cell's version as it visits it, so cross-cell reads are
// per-cell snapshot-consistent, not globally serialized.
type engine struct {
	spec *Spec
	ro   *router // nil over one cell
	sem  chan struct{}

	// metrics is the engine's own view of the sink every cell also holds
	// (SetMetrics); it feeds the routing counters and the fan-out latency
	// histogram. Nil when observability is off.
	metrics *obs.Metrics

	cells []cell
}

func (e *engine) body() *engine { return e }

// Spec returns the relational specification.
func (e *engine) Spec() *Spec { return e.spec }

// NumCells is the number of MVCC cells: 1 for a SyncRelation, the shard
// count for a ShardedRelation.
func (e *engine) NumCells() int { return len(e.cells) }

// SetMetrics attaches one shared metrics sink to every cell and to the
// routing counters; every counter is atomic.
//
//relvet:role=config
func (e *engine) SetMetrics(m *obs.Metrics) {
	e.metrics = m
	e.config(func(r *Relation) { r.SetMetrics(m) })
}

// SetTracer attaches one tracer to every cell, before the engine is
// shared; version forks inherit it. The tracer receives events from
// fan-out workers and concurrent readers, so it must be safe for
// concurrent use.
func (e *engine) SetTracer(t obs.Tracer) {
	e.config(func(r *Relation) { r.SetTracer(t) })
}

// config applies a configuration knob to every cell's published version.
func (e *engine) config(set func(*Relation)) {
	for i := range e.cells {
		e.cells[i].config(set)
	}
}

// Metrics returns the attached metrics sink, or nil.
func (e *engine) Metrics() *obs.Metrics { return e.metrics }

// routed records one operation that touched exactly one shard.
func (e *engine) routed() {
	if e.ro != nil && e.metrics != nil {
		e.metrics.RoutedOps.Add(1)
	}
}

// Insert implements insert r t: fork, mutate copy-on-write, publish. The
// full tuple always binds the shard key, so exactly one cell's writers
// serialize; readers are never blocked.
func (e *engine) Insert(t relation.Tuple) error {
	i, err := e.ro.mustRoute(t)
	if err != nil {
		return err
	}
	e.routed()
	return e.cells[i].insert(t)
}

// Remove implements remove r s. A routed pattern removes on one cell; any
// other pattern fans out, and the partitioned per-cell counts sum. A cell
// whose removal fails drops its fork (readers keep its pre-remove version)
// and contributes zero to the count.
func (e *engine) Remove(pat relation.Tuple) (int, error) {
	if i, ok := e.ro.route(pat); ok {
		e.routed()
		return e.cells[i].remove(pat)
	}
	return e.fanOutSum(func(_ int, c *cell) (int, error) { return c.remove(pat) })
}

// Update implements the keyed dupdate; like Remove, a failed update drops
// the fork and reports 0. A pattern binding the shard key updates on its
// one cell; any other pattern goes to every cell, and since it must be a
// key at most one cell finds a match. Values that assign a shard-key
// column are rejected: the tuple would stay on a cell its new values do
// not route to.
func (e *engine) Update(s, u relation.Tuple) (int, error) {
	if e.ro != nil && u.Dom().Intersects(e.ro.key) {
		return 0, fmt.Errorf("core: update values %v assign the shard key %v", u, e.ro.key)
	}
	if i, ok := e.ro.route(s); ok {
		e.routed()
		return e.cells[i].update(s, u)
	}
	return e.fanOutSum(func(_ int, c *cell) (int, error) { return c.update(s, u) })
}

// Query implements query r s C, lock-free. A routed pattern reads one
// cell's snapshot with Relation.Query, the call every single-cell tier
// makes. Other patterns fan out over the cells' snapshots: each cell's
// answer stays sorted, de-duplicated code rows, and the merge boxes each
// result row once (plan.Merge).
//
//relvet:role=read
func (e *engine) Query(pat relation.Tuple, out []string) ([]relation.Tuple, error) {
	if i, ok := e.ro.route(pat); ok {
		e.routed()
		r, ok := e.cells[i].snapshot()
		if !ok {
			return nil, ErrClosed
		}
		return r.Query(pat, out)
	}
	parts := make([]plan.Part, len(e.cells))
	err := e.fanOut(func(i int, c *cell) (err error) {
		r, ok := c.snapshot()
		if !ok {
			return ErrClosed
		}
		parts[i], err = r.query(pat, out, collectHeld)
		return err
	})
	return merged(parts, err)
}

// QueryFunc streams π_C of matching tuples like Relation.QueryFunc: no
// de-duplication, cell-by-cell order, and each row a view valid only until
// f returns (copy one to keep it with t.Project(t.Dom())). A routed pattern
// streams one cell's snapshot; otherwise cells stream sequentially, each
// pinned as the stream reaches it. The iteration holds no lock, so the
// callback may mutate the engine freely: a cell already pinned keeps
// streaming its version, and a cell visited later is pinned at whatever
// version is current then.
//
//relvet:role=read
func (e *engine) QueryFunc(pat relation.Tuple, out []string, f func(relation.Tuple) bool) error {
	if i, ok := e.ro.route(pat); ok {
		e.routed()
		r, ok := e.cells[i].snapshot()
		if !ok {
			return ErrClosed
		}
		return r.QueryFunc(pat, out, f)
	}
	// The sequential broadcast is still a fan-out for accounting: it visits
	// every cell for one logical operation.
	if m := e.metrics; m != nil {
		m.FanOuts.Add(1)
		start := time.Now()
		defer func() { m.FanOutLatency.Observe(time.Since(start)) }()
	}
	stopped := false
	for i := range e.cells {
		r, ok := e.cells[i].snapshot()
		if !ok {
			return ErrClosed
		}
		err := r.QueryFunc(pat, out, func(t relation.Tuple) bool {
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
// read one cell's snapshot, others fan out and merge like Query.
//
//relvet:role=read
func (e *engine) QueryRange(pat relation.Tuple, col string, lo, hi *value.Value, out []string) ([]relation.Tuple, error) {
	if i, ok := e.ro.route(pat); ok {
		e.routed()
		r, ok := e.cells[i].snapshot()
		if !ok {
			return nil, ErrClosed
		}
		return r.QueryRange(pat, col, lo, hi, out)
	}
	parts := make([]plan.Part, len(e.cells))
	err := e.fanOut(func(i int, c *cell) (err error) {
		r, ok := c.snapshot()
		if !ok {
			return ErrClosed
		}
		parts[i], err = r.queryRange(pat, col, lo, hi, out, collectHeld)
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

// All returns every tuple in deterministic order: the empty-pattern Query
// over all columns, which routes only when there is no router.
//
//relvet:role=read
func (e *engine) All() ([]relation.Tuple, error) {
	return e.Query(relation.NewTuple(), e.spec.Cols().Names())
}

// Len returns the number of tuples in the published versions, lock-free;
// over several cells the sum is a consistent total only when no writer is
// concurrent. It reads the versions directly, so it answers after Close.
//
//relvet:role=read
func (e *engine) Len() int {
	n := 0
	for i := range e.cells {
		n += e.cells[i].cur.Load().Len()
	}
	return n
}

// InsertBatch inserts many tuples with one version fork (and, on a durable
// engine, one log record) per touched cell; distinct cells apply their
// groups in parallel. Each cell's group is atomic: on error the failing
// cell drops its fork (readers keep the pre-batch version) and returns the
// first error (by cell index), while the other cells' groups publish
// independently — a failing cell never strands its peers mid-batch.
func (e *engine) InsertBatch(ts []relation.Tuple) error {
	if e.ro == nil || len(ts) == 0 {
		return e.cells[0].insertBatch(ts)
	}
	groups := make([][]relation.Tuple, len(e.cells))
	for _, t := range ts {
		i, err := e.ro.mustRoute(t)
		if err != nil {
			return err
		}
		groups[i] = append(groups[i], t)
	}
	return e.fanOut(func(i int, c *cell) error { return c.insertBatch(groups[i]) })
}

// ApplyCommits replays the records src hands over (see Engine). With no
// router it is the one cell's replay body. Otherwise each record routes by
// its tuples, and a run of records bound for one shard is one cell.apply;
// the record that ends a run is pulled while the run's fork is still open
// and held over to start the next one. A record that splits across shards
// (a follower whose layout differs from the publisher's) is applied on its
// own, each shard's piece as its own atomic version.
func (e *engine) ApplyCommits(src CommitSource) (int, error) {
	if e.ro == nil {
		return e.cells[0].apply(src)
	}
	// An empty stream reaches no cell; it still answers ErrClosed.
	if err := e.cells[0].fence(); err != nil {
		return 0, err
	}
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
		at, err = e.routeWhole(rec)
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
			if err := e.applySplit(rec); err != nil {
				return published, err
			}
			published++
			continue
		}
		run, first := at, true
		n, err := e.cells[run].apply(func() (wal.Commit, bool, error) {
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
func (e *engine) ApplyCommit(c wal.Commit) error {
	_, err := e.ApplyCommits(oneCommit(c))
	return err
}

// routeWhole returns the one shard every tuple of c routes to, or -1 when
// c splits across shards (or carries no tuple to route by).
func (e *engine) routeWhole(c wal.Commit) (int, error) {
	at := -1
	for _, ts := range [...][]relation.Tuple{c.Removed, c.Inserted} {
		for _, t := range ts {
			i, err := e.ro.mustRoute(t)
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
func (e *engine) applySplit(c wal.Commit) error {
	pieces := make(map[int]*wal.Commit)
	at := func(t relation.Tuple) (*wal.Commit, error) {
		i, err := e.ro.mustRoute(t)
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
	for i := range e.cells {
		if p := pieces[i]; p != nil {
			if err := e.cells[i].applyOne(*p); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckInvariants verifies every cell's published snapshot. Each snapshot
// is immutable, so the walk needs no locks and is trivially consistent.
// Under a router it also checks that each tuple lives on the shard its key
// hashes to, and that the declared FDs hold on the union of the shard
// abstractions (per-shard FD checks cannot see cross-shard violations when
// the shard key is not a key).
func (e *engine) CheckInvariants() error {
	if e.ro == nil {
		r, ok := e.cells[0].load()
		if !ok {
			return ErrClosed
		}
		return r.CheckInvariants()
	}
	all := relation.Empty(e.spec.Cols())
	for i := range e.cells {
		r, ok := e.cells[i].load()
		if !ok {
			return ErrClosed
		}
		if err := r.CheckInvariants(); err != nil {
			return err
		}
		for _, t := range r.inst.Relation().All() {
			if j, ok := e.ro.route(t); !ok || j != i {
				return fmt.Errorf("core: tuple %v found on shard %d but routes to shard %d", t, i, j)
			}
			if err := all.Insert(t); err != nil {
				return err
			}
		}
	}
	if !e.spec.FDs.Holds(all) {
		return fmt.Errorf("core: union abstraction of sharded relation %q violates its FDs", e.spec.Name)
	}
	return nil
}

// ExplainQuery reports how the engine executes the shape against cell 0's
// published version, stamped with that version: all cells share one plan
// cache, so the chosen plan and its compilation state are cell-independent.
// Under a router it adds the routing decision the input's columns produce.
// Lock-free like the query paths it describes; plan promotion inside the
// cache has its own synchronization.
//
//relvet:role=read
func (e *engine) ExplainQuery(input, output []string) (*QueryExplain, error) {
	r, ok := e.cells[0].load()
	if !ok {
		return nil, ErrClosed
	}
	x, err := r.ExplainQuery(input, output)
	if err != nil {
		return nil, err
	}
	x.Snapshot, x.SnapshotVersion = true, r.Version()
	switch {
	case e.ro == nil:
	case e.ro.key.SubsetOf(relation.NewCols(input...)):
		x.Routing = "routed"
	default:
		x.Routing = "fan-out"
		x.Shards = len(e.cells)
	}
	return x, nil
}

// fanOut runs f once per cell on the bounded worker pool and returns the
// lowest-indexed error. With a single worker it degenerates to an inline
// sequential loop — no goroutines, no channel traffic. Each cell's work is
// wrapped in panic containment inside the worker itself: a panic in a
// goroutine cannot be recovered by the caller, so without this a single
// crashing cell would kill the process and strand its peers' locks.
func (e *engine) fanOut(f func(int, *cell) error) error {
	if m := e.metrics; m != nil {
		m.FanOuts.Add(1)
		start := time.Now()
		defer func() { m.FanOutLatency.Observe(time.Since(start)) }()
	}
	run := func(i int) (err error) {
		defer containRead("shard fan-out", &err)
		return f(i, &e.cells[i])
	}
	if cap(e.sem) == 1 {
		var first error
		for i := range e.cells {
			if err := run(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var wg sync.WaitGroup
	errs := make([]error, len(e.cells))
	for i := range e.cells {
		e.sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() {
				<-e.sem
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
// the cells that succeeded alongside the lowest-indexed error.
func (e *engine) fanOutSum(f func(int, *cell) (int, error)) (int, error) {
	counts := make([]int, len(e.cells))
	err := e.fanOut(func(i int, c *cell) (err error) {
		counts[i], err = f(i, c)
		return err
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, err
}
