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
// Like the paper's generated code, a Relation trusts its client to respect
// the relational specification: inserting a tuple that would violate the
// declared functional dependencies is a client error (Lemma 4's
// precondition). The structurally detectable violations are still reported
// as errors; set CheckFDs for full validation at a per-operation query
// cost.
type Relation struct {
	spec    *Spec
	dcmp    *decomp.Decomp
	inst    *instance.Instance
	planner *plan.Planner
	plans   *planCache

	// CheckFDs enables full functional-dependency validation on every
	// insert and update. Off by default: the paper's compiled code performs
	// no dynamic checking.
	CheckFDs bool

	// poisoned degrades the relation to read-only after a failed rollback;
	// see ErrPoisoned. Only written under the owning tier's write lock.
	poisoned bool

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
		plans: newPlanCache(),
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

// SetMetrics attaches (or, with nil, detaches) a metrics sink. Like the
// CheckFDs flag, set it before the relation is shared;
// sharded shards may safely share one sink — every counter is atomic.
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

// Metrics returns the attached metrics sink, or nil.
func (r *Relation) Metrics() *obs.Metrics { return r.metrics }

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
		if rangeCol != "" {
			return r.promoteRange(input, output, rangeCol)
		}
		c, err := r.planner.Best(input, output)
		if err != nil {
			return nil, err
		}
		// Promotion into the cache is when a plan earns compilation: the
		// planning cost is already being paid once per shape, so the (small)
		// compile cost rides along, and every later hit runs the program.
		// Slot indices are a pure function of the decomposition, so the
		// program compiled against this instance is valid for every shard
		// sharing the cache. A plan the compiler cannot lower keeps Prog nil
		// and runs interpreted — the interpreter stays the oracle.
		prog, perr := plan.Compile(r.inst, c.Op, input, output)
		if perr == nil {
			c.Prog = prog
			if r.metrics != nil {
				r.metrics.PlanCompiled.Add(1)
			}
			// The vectorized form rides the same promotion: CompileBatch
			// accepts exactly the plans Compile accepts, and like Prog the
			// batch program binds only decomposition slot indices, so it
			// is valid for every shard sharing the cache.
			if bp, berr := plan.CompileBatch(r.inst, c.Op, input, output); berr == nil {
				c.Batch = bp
				if r.metrics != nil {
					r.metrics.PlanVectorized.Add(1)
				}
			}
		} else if r.metrics != nil {
			r.metrics.PlanFallbacks.Add(1)
		}
		if r.tracer != nil {
			r.tracer.Event(obs.Event{Kind: obs.EvPlanCompile, Detail: c.Op.String(), Err: perr})
		}
		return c, nil
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

// promoteRange plans and compiles a range shape for the cache. The plan is
// the cheapest one binding output ∪ {col}; its batch program projects onto
// output alone. There is no closure form of a range query — the executor of
// last resort is the interpreter (plan.ExecRange) — so the promotion counts
// PlanVectorized and neither PlanCompiled nor PlanFallbacks.
func (r *Relation) promoteRange(input, output relation.Cols, col string) (*plan.Candidate, error) {
	c, err := r.planner.Best(input, output.Union(relation.NewCols(col)))
	if err != nil {
		return nil, err
	}
	bp, berr := plan.CompileBatchRange(r.inst, c.Op, input, output, col)
	if berr == nil {
		c.Batch = bp
		if r.metrics != nil {
			r.metrics.PlanVectorized.Add(1)
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
// cand.Prog == nil means the shape runs on the interpreter.
func (r *Relation) PlanCandidate(input, output []string) (*plan.Candidate, error) {
	return r.planFor(relation.NewCols(input...), relation.NewCols(output...))
}

// Insert implements insert r t. The tuple must bind exactly the relation's
// columns with the declared types. With CheckFDs it also verifies the
// functional dependencies are preserved. Insert is atomic: on any error —
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
	if r.CheckFDs {
		for _, f := range r.spec.FDs.All() {
			conflict := false
			err := r.queryFunc(t.Project(f.From), f.To, func(got relation.Tuple) bool {
				conflict = !got.Project(f.To).Equal(t.Project(f.To))
				return !conflict
			})
			if err != nil {
				return false, err
			}
			if conflict {
				return false, fmt.Errorf("core: insert of %v violates FD %v", t, f)
			}
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
	p, err := r.query(s, out, false)
	return p.Rows, err
}

// query is Query's body. With hold set, a completed batch run is not boxed:
// it is reduced to its sorted distinct code rows and handed back unreleased
// as p.Res, for a fan-out to merge with the other cells' parts (plan.Merge)
// and release. Every other tier, and every run without hold, collects boxed
// rows into p.Rows. The part lives with the caller, never on the shared
// snapshot.
func (r *Relation) query(s relation.Tuple, out []string, hold bool) (p plan.Part, err error) {
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
	if tr := r.tracer; tr != nil {
		start := time.Now()
		defer func() {
			tr.Event(obs.Event{Kind: obs.EvPlanExec, Op: "query", Detail: cand.Op.String(), Rows: p.Len(), Dur: time.Since(start)})
		}()
	}
	// Vectorized tier first: a completed batch run produces the same
	// deduplicated, sorted result set; a bailout falls through to the
	// closure tier having emitted nothing (stages bail before emitting).
	if cand.Batch != nil {
		if br, ok := cand.Batch.Run(r.inst, s); ok {
			if r.metrics != nil {
				r.metrics.ExecVectorized.Add(1)
			}
			return collectBatch(br, hold), nil
		}
		if r.metrics != nil {
			r.metrics.VecFallbacks.Add(1)
		}
	}
	r.countExec(cand)
	if cand.Prog != nil {
		p.Rows = cand.Prog.Collect(r.inst, s, cand.EstimatedRows())
	} else {
		p.Rows = plan.CollectSized(r.inst, cand.Op, s, outCols, cand.EstimatedRows())
	}
	return p, nil
}

// collectBatch is the set-valued answer of a completed batch run: held —
// sorted and de-duplicated on its code words, unreleased — or boxed and
// released.
func collectBatch(br *plan.BatchResult, hold bool) plan.Part {
	if hold {
		br.SortDistinct()
		return plan.Part{Res: br}
	}
	rows := br.Collect()
	br.Release()
	return plan.Part{Rows: rows}
}

// countExec records which execution tier a plan ran on: the compiled
// closure program or the Figure 7 interpreter. Point-plan executions are
// counted by the sharded tier's queryPoint, the only caller of that tier.
func (r *Relation) countExec(cand *plan.Candidate) {
	if r.metrics == nil {
		return
	}
	if cand.Prog != nil {
		r.metrics.ExecCompiled.Add(1)
	} else {
		r.metrics.ExecInterpreted.Add(1)
	}
}

// QueryFunc implements the streaming query of the paper's generated
// iterators: f is called with π_C(t) for each matching tuple t, stopping if
// f returns false. Like the paper's constant-space query execution it does
// not eliminate duplicate projections.
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
	r.stream(cand, s, f, &outCols)
	return nil
}

// queryFunc streams matching tuples to f. The tuples f sees bind at least
// the columns of out but may be transient views — every internal caller
// projects (which copies) before retaining; the public QueryFunc, whose
// caller may retain, asks stream for rows of its own instead.
func (r *Relation) queryFunc(s relation.Tuple, out relation.Cols, f func(relation.Tuple) bool) error {
	cand, err := r.planFor(s.Dom(), out)
	if err != nil {
		return err
	}
	r.stream(cand, s, f, nil)
	return nil
}

// stream runs cand for s on the streaming dispatch ladder — vectorized,
// closure program on a bail, interpreter — the one order every streaming
// query takes once its plan is chosen (queryPoint tries the point plan
// first and then comes here). With keep nil, f may be handed transient
// views. Otherwise cand was planned for the output *keep and f may retain
// what it gets: each row is π_keep in memory of its own — projected row by
// row on the closure and interpreter tiers, carved from one allocation per
// slab of rows on the vectorized tier, which knows its row count up front.
func (r *Relation) stream(cand *plan.Candidate, s relation.Tuple, f func(relation.Tuple) bool, keep *relation.Cols) {
	if tr := r.tracer; tr != nil {
		rows := 0
		inner := f
		f = func(t relation.Tuple) bool { rows++; return inner(t) }
		start := time.Now()
		defer func() {
			tr.Event(obs.Event{Kind: obs.EvPlanExec, Op: "query", Detail: cand.Op.String(), Rows: rows, Dur: time.Since(start)})
		}()
	}
	// Vectorized tier first. A batch program bails before emitting, so a
	// fallback re-run on the closure tier never duplicates rows, and the
	// batch emission order matches the closure tier's exactly (the
	// differential tests in package plan hold both tiers to it).
	if cand.Batch != nil {
		if br, ok := cand.Batch.Run(r.inst, s); ok {
			if r.metrics != nil {
				r.metrics.ExecVectorized.Add(1)
			}
			if keep != nil {
				br.EachRow(f)
			} else {
				br.EachTuple(f)
			}
			br.Release()
			return
		}
		if r.metrics != nil {
			r.metrics.VecFallbacks.Add(1)
		}
	}
	if keep != nil {
		inner := f
		f = func(t relation.Tuple) bool { return inner(t.Project(*keep)) }
	}
	r.countExec(cand)
	if cand.Prog != nil {
		cand.Prog.StreamView(r.inst, s, f)
		return
	}
	plan.Exec(r.inst, cand.Op, s, f)
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
	p, err := r.queryRange(s, col, lo, hi, out, false)
	return p.Rows, err
}

// queryRange is QueryRange's body; hold is query's.
func (r *Relation) queryRange(s relation.Tuple, col string, lo, hi *value.Value, out []string, hold bool) (p plan.Part, rerr error) {
	defer containRead("query-range", &rerr)
	if r.metrics != nil {
		r.metrics.QueryRange.Add(1)
	}
	cand, outCols, err := r.rangePlan(s, col, out)
	if err != nil {
		return p, err
	}
	return r.execRange(cand, s, rangeOf(col, lo, hi), outCols, nil, hold), nil
}

// QueryRangeFunc is the streaming form of QueryRange: no de-duplication,
// and like QueryFunc's, the rows f is handed are the caller's to keep.
func (r *Relation) QueryRangeFunc(s relation.Tuple, col string, lo, hi *value.Value, out []string, f func(relation.Tuple) bool) (rerr error) {
	defer containRead("query-range", &rerr)
	if r.metrics != nil {
		r.metrics.QueryRange.Add(1)
	}
	cand, outCols, err := r.rangePlan(s, col, out)
	if err != nil {
		return err
	}
	r.execRange(cand, s, rangeOf(col, lo, hi), outCols, f, false)
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

// execRange runs a planned range query on the range dispatch ladder — the
// batch program compiled for the column, then the interpreter
// (plan.ExecRange) when there is none or it bailed, having emitted nothing
// — and counts the tier that ran. With f nil it returns the de-duplicated,
// sorted result set (QueryRange), held as query holds it; otherwise it
// streams π_out row by row to f, each row in memory of its own
// (QueryRangeFunc), and returns an empty part.
func (r *Relation) execRange(cand *plan.Candidate, s relation.Tuple, rg plan.Range, out relation.Cols, f func(relation.Tuple) bool, hold bool) (p plan.Part) {
	if tr := r.tracer; tr != nil {
		rows := 0
		if inner := f; inner != nil {
			f = func(t relation.Tuple) bool { rows++; return inner(t) }
		}
		start := time.Now()
		defer func() {
			// Rows streamed to f, or — collecting — rows returned, as for Query.
			tr.Event(obs.Event{Kind: obs.EvPlanExec, Op: "query-range", Detail: cand.Op.String(), Rows: rows + p.Len(), Dur: time.Since(start)})
		}()
	}
	if cand.Batch != nil {
		if br, ok := cand.Batch.RunRange(r.inst, s, rg); ok {
			if r.metrics != nil {
				r.metrics.ExecVectorized.Add(1)
			}
			if f == nil {
				return collectBatch(br, hold)
			}
			br.EachRow(f)
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
	if f == nil {
		p.Rows = plan.CollectFunc(func(emit func(relation.Tuple) bool) {
			plan.ExecRange(r.inst, cand.Op, s, rg, emit)
		}, out, cand.EstimatedRows())
		return p
	}
	plan.ExecRange(r.inst, cand.Op, s, rg, func(t relation.Tuple) bool { return f(t.Project(out)) })
	return p
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
	return r.update(s, u)
}

// update is Update without the Updates counter, so the sharded tier's
// updatePoint fast path (which counts once itself) can fall back here
// without double-counting the logical operation.
func (r *Relation) update(s, u relation.Tuple) (int, error) {
	n, _, _, err := r.updateDelta(s, u)
	return n, err
}

// updateDelta is update additionally reporting the logical delta the
// operation applied — the full stored tuple it replaced (old) and the
// full merged tuple now stored (upd) — for the durable tier, which logs
// the pair as one WAL commit. Both are zero when n == 0. Like update it
// does not count the Updates counter; callers count the logical op once.
func (r *Relation) updateDelta(s, u relation.Tuple) (n int, old, upd relation.Tuple, err error) {
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
	if !r.spec.FDs.IsKey(s.Dom(), r.spec.Cols()) {
		return 0, old, upd, fmt.Errorf("core: update pattern %v is not a key (the paper's dupdate restriction)", s)
	}
	if !s.Dom().Intersect(u.Dom()).IsEmpty() {
		return 0, old, upd, fmt.Errorf("core: update values %v overlap the pattern %v", u, s)
	}
	var match relation.Tuple
	found := false
	if err := r.queryFunc(s, r.spec.Cols(), func(t relation.Tuple) bool {
		match, found = t.Project(r.spec.Cols()), true
		return false
	}); err != nil {
		return 0, old, upd, err
	}
	if !found {
		return 0, old, upd, nil
	}
	merged := match.Merge(u)
	if r.CheckFDs {
		if err := r.spec.CheckTuple(merged, true); err != nil {
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
