package core

import (
	"fmt"
	"time"

	"repro/internal/decomp"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// A Relation is a synthesized data representation: the relational interface
// of §2 implemented over the decomposition instance of a chosen
// decomposition, with every query compiled to the cheapest valid plan.
//
// The declared functional dependencies always hold: an insert or update
// that would violate one is rejected and changes nothing (Lemma 4's
// precondition, checked rather than trusted). The instance's insert walk
// rejects every violation the decomposition's shape can show; the FDs no
// shape shows (unseenFDs, computed once per decomposition and empty for
// most) cost one query per insert, and per update that sets their columns.
type Relation struct {
	spec    *Spec
	dcmp    *decomp.Decomp
	inst    *instance.Instance
	planner *plan.Planner
	plans   *planCache

	// poisoned degrades the relation to read-only after a failed rollback;
	// see ErrPoisoned. Only written under the owning tier's write lock.
	poisoned bool

	// durable marks a version whose writes are write-ahead logged: NewDurable
	// sets it when it attaches the logs, and ExplainQuery reports it.
	durable bool

	// metrics and tracer are the observability hooks (SetMetrics,
	// SetTracer). Both nil by default; the disabled cost is one nil check
	// per counted site. The exact counter semantics are documented on
	// obs.Metrics.
	metrics *obs.Metrics
	tracer  obs.Tracer
}

// New checks the specification, verifies the decomposition is adequate for
// it (Figure 6), verifies data-structure key typing (a vector edge needs a
// single integer key column) and that every variable fits a node
// (instance.CheckShape), and returns an empty relation.
func New(spec *Spec, d *decomp.Decomp) (*Relation, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := d.CheckAdequate(spec.Cols(), spec.FDs); err != nil {
		return nil, err
	}
	for _, e := range d.Edges() {
		if !e.DS.IntKeyedOnly() {
			continue
		}
		for _, k := range e.Key.Names() {
			if t, _ := spec.Type(k); t != IntCol {
				return nil, fmt.Errorf("core: edge %s→%s uses a %s over non-integer column %q", e.Parent, e.Target, e.DS, k)
			}
		}
	}
	if err := instance.CheckShape(d); err != nil {
		return nil, err
	}
	r := &Relation{
		spec:  spec,
		dcmp:  d,
		inst:  instance.New(d, spec.FDs),
		plans: newPlanCache(unseenFDs(d, spec.FDs)),
	}
	r.planner = plan.NewPlanner(d, spec.FDs, nil)
	return r, nil
}

// MustNew is New for statically known-good configurations; it panics on
// error. Use in examples and fixtures only.
func MustNew(spec *Spec, d *decomp.Decomp) *Relation {
	r, err := New(spec, d)
	if err != nil {
		panic(err)
	}
	return r
}

// Spec returns the relational specification.
func (r *Relation) Spec() *Spec { return r.spec }

// Decomp returns the decomposition.
func (r *Relation) Decomp() *decomp.Decomp { return r.dcmp }

// Instance exposes the underlying decomposition instance for tests and
// profiling.
func (r *Relation) Instance() *instance.Instance { return r.inst }

// Len returns the number of tuples.
//
//relvet:role=read
func (r *Relation) Len() int { return r.inst.Len() }

// Version returns the relation's MVCC version number: 0 on a directly
// mutated relation, and the number of write operations that published a
// new snapshot on the concurrent tiers (each engine-level write forks
// exactly one version, however many tuples it touches).
func (r *Relation) Version() uint64 { return r.inst.Version() }

// beginVersion forks an unpublished successor of the relation for one
// write operation on the MVCC tiers: a shallow copy sharing the spec, the
// planner, and the plan cache (compiled programs bind decomposition slot
// indices, which are version-independent — see SlotOfEdge) over a
// copy-on-write fork of the instance. The caller mutates the fork and
// either publishes it atomically or drops it.
//
//relvet:role=fork
func (r *Relation) beginVersion() *Relation {
	c := *r
	c.inst = r.inst.BeginVersion()
	return &c
}

// SetMetrics attaches (or, with nil, detaches) a metrics sink. Set it
// before the relation is shared; sharded shards may safely share one sink —
// every counter is atomic.
//
//relvet:role=config
func (r *Relation) SetMetrics(m *obs.Metrics) {
	r.metrics = m
	r.inst.SetObs(m, r.tracer)
}

// SetTracer attaches (or, with nil, detaches) a span-event tracer. The
// tracer must be safe for concurrent use and must not call back into
// this relation (events fire while engine locks are held).
//
//relvet:role=config
func (r *Relation) SetTracer(t obs.Tracer) {
	r.tracer = t
	r.inst.SetObs(r.metrics, t)
}

// Reprofile replaces the planner's statistics with fanouts measured from
// the current instance (§4.3's profiling option) and clears the plan cache.
func (r *Relation) Reprofile() {
	r.planner = plan.NewPlanner(r.dcmp, r.spec.FDs, plan.MeasuredStats(r.inst))
	r.plans.reset()
}

// planFor returns the cheapest valid plan computing output from input: the
// equality-query case of planShape.
func (r *Relation) planFor(input, output relation.Cols) (*plan.Candidate, error) {
	return r.planShape(input, output, "")
}

// planShape returns the cheapest valid plan for a query shape, memoized on
// its column signature. The cache is read-lock-free and deduplicates
// concurrent misses, so shard fan-out cannot stampede the planner: the first
// miss on a shape plans it, concurrent misses wait for that result. A hit
// allocates nothing — the signature is built in a scratch buffer and only
// materialized as a string on a miss.
//
// A shape is an equality query (rangeCol empty) or a range query over
// rangeCol, which is a shape of its own — the signature includes the column,
// the plan must bind it on top of output, and the batch program is compiled
// to constrain it (the bounds themselves are run-time values, so one entry
// serves every interval).
func (r *Relation) planShape(input, output relation.Cols, rangeCol string) (*plan.Candidate, error) {
	var sigArr [96]byte
	buf := input.AppendKey(sigArr[:0])
	buf = append(buf, '|')
	buf = output.AppendKey(buf)
	if rangeCol != "" {
		buf = append(buf, '|')
		buf = append(buf, rangeCol...)
	}
	if c, ok := r.plans.get(string(buf)); ok {
		if r.metrics != nil {
			r.metrics.PlanCacheHits.Add(1)
		}
		return c, nil
	}
	planned := false
	c, err := r.plans.do(string(buf), func() (*plan.Candidate, error) {
		planned = true
		if r.metrics != nil {
			r.metrics.PlanCacheMisses.Add(1)
		}
		return r.promote(input, output, rangeCol)
	})
	// A caller that neither hit the fast path nor ran the callback waited on
	// a concurrent planner invocation for the same shape — a hit, by the
	// counter contract (misses count planner invocations, exactly once per
	// promoted shape).
	if !planned && err == nil && r.metrics != nil {
		r.metrics.PlanCacheHits.Add(1)
	}
	return c, err
}

// promote plans and lowers a shape for the cache. The plan is the cheapest
// one binding output plus the range column, if there is one; its batch
// program projects onto output alone. Promotion is when a plan earns its
// program: the planning cost is paid once per shape, the (small) compile
// cost rides along, and every later hit runs the program. The program binds
// only decomposition slot indices, so the one compiled against this
// instance is valid for every version and shard sharing the cache. A plan
// the batch compiler cannot lower keeps Batch nil (PlanFallbacks) and runs
// on the interpreter, which stays the oracle.
func (r *Relation) promote(input, output relation.Cols, rangeCol string) (*plan.Candidate, error) {
	bind := output
	if rangeCol != "" {
		bind = output.Union(relation.NewCols(rangeCol))
	}
	c, err := r.planner.Best(input, bind)
	if err != nil {
		return nil, err
	}
	bp, berr := plan.CompileBatchRange(r.inst, c.Op, input, output, rangeCol)
	c.Batch = bp // nil when the plan did not lower
	c.Key = r.spec.FDs.IsKey(input, r.spec.Cols())
	if r.metrics != nil {
		if bp != nil {
			r.metrics.PlanVectorized.Add(1)
		} else {
			r.metrics.PlanFallbacks.Add(1)
		}
	}
	if r.tracer != nil {
		r.tracer.Event(obs.Event{Kind: obs.EvPlanCompile, Detail: c.Op.String(), Err: berr})
	}
	return c, nil
}

// PlanDescription returns the chosen plan for a query shape in the paper's
// notation, for debugging and documentation.
func (r *Relation) PlanDescription(input, output []string) (string, error) {
	c, err := r.planFor(relation.NewCols(input...), relation.NewCols(output...))
	if err != nil {
		return "", err
	}
	return c.Op.String(), nil
}

// PlanCandidate returns the plan candidate the engine would run for a
// query binding exactly the input columns and projecting the output
// columns, from the plan cache (planning, compiling and promoting the shape
// on first use). It exposes the promotion state for tests and diagnostics;
// cand.Batch == nil means the shape runs on the interpreter.
func (r *Relation) PlanCandidate(input, output []string) (*plan.Candidate, error) {
	return r.planFor(relation.NewCols(input...), relation.NewCols(output...))
}

// Insert implements insert r t. The tuple must bind exactly the relation's
// columns with the declared types, and storing it must preserve the
// functional dependencies. Insert is atomic: on any error —
// including a panic from plan execution or a data structure, which is
// returned as a *PanicError — the relation is unchanged.
func (r *Relation) Insert(t relation.Tuple) error {
	_, err := r.insert(t)
	return err
}

// insert is Insert reporting whether the relation changed, for batch undo.
func (r *Relation) insert(t relation.Tuple) (changed bool, err error) {
	if r.metrics != nil {
		r.metrics.Inserts.Add(1)
	}
	if r.poisoned {
		return false, ErrPoisoned
	}
	defer r.containMut("insert", &err)
	if err := r.spec.CheckTuple(t, true); err != nil {
		return false, err
	}
	for _, f := range r.plans.unseen {
		if err := r.checkFD(t, f, relation.Tuple{}); err != nil {
			return false, err
		}
	}
	return r.inst.Insert(t)
}

// Query implements query r s C: it returns π_C of the tuples extending s,
// de-duplicated and in deterministic order. It is a convenience wrapper;
// performance-sensitive clients should use QueryFunc, which streams like
// the paper's generated iterators.
//
//relvet:role=read
func (r *Relation) Query(s relation.Tuple, out []string) ([]relation.Tuple, error) {
	p, err := r.query(s, out, collectBoxed)
	return p.Rows, err
}

// query is Query's body; m is collectBoxed, or collectHeld for a fan-out
// that merges the cells' parts itself. The part lives with the caller,
// never on the shared snapshot.
func (r *Relation) query(s relation.Tuple, out []string, m readMode) (p plan.Part, err error) {
	defer containRead("query", &err)
	if r.metrics != nil {
		r.metrics.QueryCollect.Add(1)
	}
	if err := r.spec.CheckTuple(s, false); err != nil {
		return p, err
	}
	outCols := r.plans.outCols(out)
	if !outCols.SubsetOf(r.spec.Cols()) {
		return p, fmt.Errorf("core: query output %v not in relation columns", outCols)
	}
	cand, err := r.planFor(s.Dom(), outCols)
	if err != nil {
		return p, err
	}
	return r.run(cand, s, plan.Range{}, outCols, m, nil), nil
}

// QueryFunc implements the streaming query of the paper's generated
// iterators: f is called with π_C(t) for each matching tuple t, stopping if
// f returns false. Like the paper's constant-space query execution it does
// not eliminate duplicate projections, and on the batch tier a streamed
// row costs no allocation: the tuple f is handed is valid only until f
// returns, like bufio.Scanner.Bytes. A caller that keeps a row copies it
// with t.Project(t.Dom()); values taken out of it (ValueAt, MustGet) are
// the caller's.
//
//relvet:role=read
func (r *Relation) QueryFunc(s relation.Tuple, out []string, f func(relation.Tuple) bool) (err error) {
	defer containRead("query", &err)
	if r.metrics != nil {
		r.metrics.QueryStream.Add(1)
	}
	if err := r.spec.CheckTuple(s, false); err != nil {
		return err
	}
	outCols := r.plans.outCols(out)
	cand, err := r.planFor(s.Dom(), outCols)
	if err != nil {
		return err
	}
	r.run(cand, s, plan.Range{}, outCols, streamProjected, f)
	return nil
}

// queryFunc streams matching tuples to f. The tuples f sees bind at least
// the columns of out, where the public QueryFunc's bind exactly out; both
// are views valid until f returns.
func (r *Relation) queryFunc(s relation.Tuple, out relation.Cols, f func(relation.Tuple) bool) error {
	cand, err := r.planFor(s.Dom(), out)
	if err != nil {
		return err
	}
	r.run(cand, s, plan.Range{}, out, streamViews, f)
	return nil
}

// A readMode is how run hands back the rows a plan produces.
type readMode uint8

const (
	// collectBoxed returns the de-duplicated, sorted result set in p.Rows.
	collectBoxed readMode = iota
	// collectHeld is collectBoxed except that a completed batch run is not
	// boxed: it is reduced to its sorted distinct code rows and handed back
	// unreleased as p.Res, for a fan-out to merge with the other cells'
	// parts (plan.Merge) and release.
	collectHeld
	// streamProjected streams exactly π_out to f, each row a view valid
	// until f returns: the batch tier's pooled view, which boxes nothing,
	// or the interpreter's per-row projection.
	streamProjected
	// streamViews streams to f tuples binding at least out, views too: the
	// interpreter hands over its bindings unprojected.
	streamViews
)

// run executes a planned shape for s on the one read ladder every cached
// shape takes — the batch program, then the Figure 7 interpreter when there
// is none or the run bailed — and counts the tier that ran. A bailed run has
// emitted nothing, so the interpreter never duplicates rows, and the batch
// emission order matches the interpreter's (the differential tests in
// package plan hold both to it). rg bounds a range shape's column and is
// zero for an equality shape, which the interpreter then runs exactly as
// plan.Exec does. m says whether the rows are collected or streamed to f.
func (r *Relation) run(cand *plan.Candidate, s relation.Tuple, rg plan.Range, out relation.Cols, m readMode, f func(relation.Tuple) bool) (p plan.Part) {
	if tr := r.tracer; tr != nil {
		op := "query"
		if rg.Col != "" {
			op = "query-range"
		}
		rows := 0
		if inner := f; inner != nil {
			f = func(t relation.Tuple) bool { rows++; return inner(t) }
		}
		start := time.Now()
		defer func() {
			// Rows streamed to f, or — collecting — rows returned.
			tr.Event(obs.Event{Kind: obs.EvPlanExec, Op: op, Detail: cand.Op.String(), Rows: rows + p.Len(), Dur: time.Since(start)})
		}()
	}
	if cand.Batch != nil {
		if br, ok := cand.Batch.RunRange(r.inst, s, rg); ok {
			if r.metrics != nil {
				r.metrics.ExecVectorized.Add(1)
			}
			switch m {
			case collectHeld:
				br.SortDistinct()
				return plan.Part{Res: br}
			case collectBoxed:
				p.Rows = br.Collect()
			case streamProjected, streamViews:
				br.EachTuple(f)
			}
			br.Release()
			return p
		}
		if r.metrics != nil {
			r.metrics.VecFallbacks.Add(1)
		}
	}
	if r.metrics != nil {
		r.metrics.ExecInterpreted.Add(1)
	}
	switch m {
	case collectBoxed, collectHeld:
		p.Rows = plan.CollectFunc(func(emit func(relation.Tuple) bool) {
			plan.ExecRange(r.inst, cand.Op, s, rg, emit)
		}, out, cand.EstimatedRows())
	case streamProjected:
		g := f
		plan.ExecRange(r.inst, cand.Op, s, rg, func(t relation.Tuple) bool { return g(t.Project(out)) })
	case streamViews:
		plan.ExecRange(r.inst, cand.Op, s, rg, f)
	}
	return p
}

// QueryRange implements the order-based query extension (§2 of the paper
// notes it is a straightforward addition to the equality-only interface):
// π_out of the tuples t extending s with lo ≤ t(col) ≤ hi. Either bound
// may be nil for a half-open range. When the chosen plan scans an ordered
// structure keyed by col, the bound turns into a seek instead of a filter.
// Results are de-duplicated and deterministic, like Query.
//
//relvet:role=read
func (r *Relation) QueryRange(s relation.Tuple, col string, lo, hi *value.Value, out []string) ([]relation.Tuple, error) {
	p, err := r.queryRange(s, col, lo, hi, out, collectBoxed)
	return p.Rows, err
}

// queryRange is QueryRange's body; m is query's.
func (r *Relation) queryRange(s relation.Tuple, col string, lo, hi *value.Value, out []string, m readMode) (p plan.Part, rerr error) {
	defer containRead("query-range", &rerr)
	if r.metrics != nil {
		r.metrics.QueryRange.Add(1)
	}
	cand, outCols, err := r.rangePlan(s, col, out)
	if err != nil {
		return p, err
	}
	return r.run(cand, s, rangeOf(col, lo, hi), outCols, m, nil), nil
}

// QueryRangeFunc is the streaming form of QueryRange: no de-duplication,
// and like QueryFunc's, the row f is handed is valid only until f returns.
func (r *Relation) QueryRangeFunc(s relation.Tuple, col string, lo, hi *value.Value, out []string, f func(relation.Tuple) bool) (rerr error) {
	defer containRead("query-range", &rerr)
	if r.metrics != nil {
		r.metrics.QueryRange.Add(1)
	}
	cand, outCols, err := r.rangePlan(s, col, out)
	if err != nil {
		return err
	}
	r.run(cand, s, rangeOf(col, lo, hi), outCols, streamProjected, f)
	return nil
}

func rangeOf(col string, lo, hi *value.Value) plan.Range {
	rg := plan.Range{Col: col}
	if lo != nil {
		rg.Lo, rg.HasLo = *lo, true
	}
	if hi != nil {
		rg.Hi, rg.HasHi = *hi, true
	}
	return rg
}

// rangePlan validates a range query and plans it; the plan must bind the
// range column so the constraint is enforced.
func (r *Relation) rangePlan(s relation.Tuple, col string, out []string) (*plan.Candidate, relation.Cols, error) {
	if err := r.spec.CheckTuple(s, false); err != nil {
		return nil, relation.Cols{}, err
	}
	if _, ok := r.spec.Type(col); !ok {
		return nil, relation.Cols{}, fmt.Errorf("core: relation %q has no column %q", r.spec.Name, col)
	}
	if s.Dom().Has(col) {
		return nil, relation.Cols{}, fmt.Errorf("core: range column %q already bound by the pattern", col)
	}
	outCols := r.plans.outCols(out)
	if !outCols.SubsetOf(r.spec.Cols()) {
		return nil, relation.Cols{}, fmt.Errorf("core: query output %v not in relation columns", outCols)
	}
	cand, err := r.planShape(s.Dom(), outCols, col)
	if err != nil {
		return nil, relation.Cols{}, err
	}
	return cand, outCols, nil
}

// Remove implements remove r s: it removes every tuple extending s and
// returns how many were removed. Per §4.5 it finds the doomed tuples with a
// query plan and breaks the edges crossing the decomposition cut for each.
// The whole pattern removal is atomic: a failure partway through the doomed
// list re-inserts the already-removed prefix before returning the error.
func (r *Relation) Remove(s relation.Tuple) (int, error) {
	removed, err := r.remove(s)
	return len(removed), err
}

// remove is Remove returning the removed tuples themselves, for batch undo.
func (r *Relation) remove(s relation.Tuple) (removed []relation.Tuple, err error) {
	if r.metrics != nil {
		r.metrics.Removes.Add(1)
	}
	if r.poisoned {
		return nil, ErrPoisoned
	}
	defer r.containMut("remove", &err)
	if err := r.spec.CheckTuple(s, false); err != nil {
		return nil, err
	}
	var doomed []relation.Tuple
	if err := r.queryFunc(s, r.spec.Cols(), func(t relation.Tuple) bool {
		doomed = append(doomed, t.Project(r.spec.Cols()))
		return true
	}); err != nil {
		return nil, err
	}
	for _, t := range doomed {
		ok, rerr := r.removeContained(t)
		if rerr != nil {
			// A copy-on-write fork needs no compensation: the caller drops
			// the whole fork and the published version never saw the prefix.
			if !r.inst.COW() {
				r.compensateInsert(removed)
			}
			return nil, rerr
		}
		if ok {
			removed = append(removed, t)
		}
	}
	return removed, nil
}

// removeStored removes the full tuple t if exactly it is stored — same key,
// same dependent columns — and reports whether it was. It is remove for a
// caller that already holds the doomed tuple: the same counter and checks,
// without the query that finds it.
func (r *Relation) removeStored(t relation.Tuple) (ok bool, err error) {
	if r.metrics != nil {
		r.metrics.Removes.Add(1)
	}
	if r.poisoned {
		return false, ErrPoisoned
	}
	defer r.containMut("remove", &err)
	if err := r.spec.CheckTuple(t, true); err != nil {
		return false, err
	}
	return r.removeContained(t)
}

// Update implements the restricted dupdate of §4.5: the pattern s must be a
// key for the relation (∆ ⊢ dom s → columns) and u must not bind any column
// of s. It updates in place when the touched columns live only in unit
// nodes below the cut; otherwise it removes and reinserts — atomically: a
// failed reinsert restores the removed tuple before the error is returned.
// It returns the number of tuples updated (0 or 1, since s is a key).
func (r *Relation) Update(s, u relation.Tuple) (n int, err error) {
	if r.metrics != nil {
		r.metrics.Updates.Add(1)
	}
	n, _, _, err = r.updateDelta(s, u, false)
	return n, err
}

// updateDelta is Update without the Updates counter (callers count the
// logical op once), additionally reporting what the operation applied —
// the full stored tuple it replaced (old) and the full merged tuple now
// stored (upd) — for a logged cell, which writes the pair as one WAL
// commit and so sets delta. Both are zero when n == 0, and may be when
// delta is off.
//
// The match is located by the shape's plan on the one read ladder. Whether
// the pattern is a key is decided once per shape, when the plan cache
// promotes it (plan.Candidate.Key). When nothing needs the stored tuple —
// no delta, no FD to check by query, the update fits in place and the
// pattern binds every map-edge key, so it can locate the nodes itself — the
// match is only proved to exist, never copied out of the read's view.
//
// An FD whose columns u does not set holds for the merged tuple as it did
// for the match. Of the others, the remove+reinsert's insert walk rejects
// the violations it can see, and an in-place update writes only nodes that
// stand for the match alone, which keeps those FDs true; the FDs no walk
// sees (unseenFDs) are checked by query against the stored tuples other
// than the match.
func (r *Relation) updateDelta(s, u relation.Tuple, delta bool) (n int, old, upd relation.Tuple, err error) {
	if r.poisoned {
		return 0, old, upd, ErrPoisoned
	}
	defer r.containMut("update", &err)
	if err := r.spec.CheckTuple(s, false); err != nil {
		return 0, old, upd, err
	}
	if err := r.spec.CheckTuple(u, false); err != nil {
		return 0, old, upd, err
	}
	cols := r.spec.Cols()
	cand, err := r.planFor(s.Dom(), cols)
	if err != nil {
		return 0, old, upd, err
	}
	if !cand.Key {
		return 0, old, upd, fmt.Errorf("core: update pattern %v is not a key (the paper's dupdate restriction)", s)
	}
	if s.Dom().Intersects(u.Dom()) {
		return 0, old, upd, fmt.Errorf("core: update values %v overlap the pattern %v", u, s)
	}
	checks := false
	for _, f := range r.plans.unseen {
		checks = checks || sets(f, u.Dom())
	}
	locate := !delta && !checks && r.inst.CanUpdateInPlace(u.Dom()) && r.inst.EdgeKeyCols().SubsetOf(s.Dom())
	var match relation.Tuple
	found := false
	r.run(cand, s, plan.Range{}, cols, streamViews, func(t relation.Tuple) bool {
		found = true
		if !locate {
			match = t.Project(cols)
		}
		return false
	})
	if !found {
		return 0, old, upd, nil
	}
	if locate {
		// The pattern drives the in-place walk itself; the read above proved
		// the match exists, which UpdateInPlace takes on trust.
		if _, uerr := r.inst.UpdateInPlace(s, u); uerr != nil {
			return 0, old, upd, uerr
		}
		return 1, old, upd, nil
	}
	merged := match.Merge(u)
	for _, f := range r.plans.unseen {
		if !sets(f, u.Dom()) {
			continue
		}
		if err := r.checkFD(merged, f, s); err != nil {
			return 0, old, upd, err
		}
	}
	ok, uerr := r.inst.UpdateInPlace(match, u)
	if uerr != nil {
		return 0, old, upd, uerr
	}
	if ok {
		return 1, match, merged, nil
	}
	n, err = r.replace(match, merged)
	if err != nil || n == 0 {
		return n, old, upd, err
	}
	return n, match, merged, nil
}

// replace is the remove+reinsert fallback of dupdate, made atomic: the
// stored tuple match is removed and merged inserted; if the insert fails,
// the removed tuple is restored before the error is returned, so the
// relation never exposes the intermediate state with neither tuple.
func (r *Relation) replace(match, merged relation.Tuple) (int, error) {
	removed, rerr := r.removeContained(match)
	if rerr != nil {
		return 0, rerr
	}
	if !removed {
		return 0, nil
	}
	if _, ierr := r.insertContained(merged); ierr != nil {
		if !r.inst.COW() {
			r.compensateInsert([]relation.Tuple{match})
		}
		return 0, ierr
	}
	return 1, nil
}

// All returns every tuple, in deterministic order.
func (r *Relation) All() ([]relation.Tuple, error) {
	return r.Query(relation.NewTuple(), r.spec.Cols().Names())
}

// CheckInvariants verifies the instance's well-formedness (Figure 5), that
// the abstraction satisfies the declared FDs, and that Len agrees with α.
// It is intended for tests; it walks the whole instance.
func (r *Relation) CheckInvariants() error {
	if err := r.inst.CheckWF(); err != nil {
		return err
	}
	rel := r.inst.Relation()
	if !r.spec.FDs.Holds(rel) {
		return fmt.Errorf("core: abstraction of %q violates its FDs", r.spec.Name)
	}
	if rel.Len() != r.inst.Len() {
		return fmt.Errorf("core: Len() = %d but α has %d tuples", r.inst.Len(), rel.Len())
	}
	return nil
}
