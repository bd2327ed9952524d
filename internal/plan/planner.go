package plan

import (
	"fmt"
	"math"

	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/fd"
	"repro/internal/instance"
	"repro/internal/relation"
)

// Stats supplies the per-edge count c(v1, v2) of §4.3: the expected number
// of entries in an instance of the edge's map. The planner's cost estimator
// combines these with the data-structure cost model m_ψ.
type Stats interface {
	Fanout(e *decomp.MapEdge) float64
}

// ConstStats assumes the same fanout on every edge. It is the default when
// no profile is available.
type ConstStats float64

// Fanout returns the constant.
func (c ConstStats) Fanout(*decomp.MapEdge) float64 { return float64(c) }

// DefaultStats is the fanout assumed without profiling information.
const DefaultStats = ConstStats(16)

// MeasuredStats profiles an instance and answers with observed fanouts —
// the paper's "recorded as part of a profiling run".
func MeasuredStats(in *instance.Instance) Stats {
	return measured{stats: in.EdgeStats()}
}

type measured struct {
	stats map[int]instance.EdgeStat
}

// Fanout returns the observed fanout of e.
func (m measured) Fanout(e *decomp.MapEdge) float64 { return m.stats[e.ID].Fanout() }

// A Planner enumerates valid query plans for one decomposition and picks
// the cheapest under the cost estimator. Construct with NewPlanner.
type Planner struct {
	d     *decomp.Decomp
	fds   fd.Set
	stats Stats
	// Pessimistic switches the join cost rule from the paper's optimistic
	// E(q1) + E(q2) to E(q1) + rows(q1) × E(q2); kept for the cost-model
	// ablation benchmark.
	Pessimistic bool
}

// NewPlanner returns a planner for d. stats may be nil, in which case
// DefaultStats is used.
func NewPlanner(d *decomp.Decomp, fds fd.Set, stats Stats) *Planner {
	if stats == nil {
		stats = DefaultStats
	}
	return &Planner{d: d, fds: fds, stats: stats}
}

// A Candidate is one valid plan with its estimated cost and the columns it
// binds.
type Candidate struct {
	Op    Op
	Bound relation.Cols
	Cost  float64
	rows  float64
	scans int // qscan operators in the plan, the cost-tie tiebreaker

	// Batch is the vectorized form of Op (see CompileBatchRange). It is not
	// set by Best — the engine compiles it when it caches the candidate,
	// because compilation needs an instance and the output columns. Nil
	// means "use the interpreter". A batch program may still bail out at
	// run time, so Batch is an optimization over the interpreter, never a
	// replacement: the engine re-runs a bailed query on the interpreter.
	Batch *BatchProgram

	// Key reports that the input columns determine every column of the
	// relation under its FDs, so a pattern binding them matches at most
	// one tuple — the proof the paper's dupdate demands of its pattern.
	// Like Batch it is set by the engine when it caches the candidate, so
	// an update decides it once per shape, not once per operation.
	Key bool
}

// EstimatedRows returns the planner's row estimate for the candidate,
// clamped to a sane allocation hint: callers size result buffers with it,
// so a wild estimate must not translate into a giant up-front allocation.
func (c *Candidate) EstimatedRows() int {
	const maxHint = 1 << 12
	if c.rows <= 1 {
		return 1
	}
	if c.rows >= maxHint {
		return maxHint
	}
	return int(c.rows)
}

// Best returns the cheapest valid plan for a query whose input tuple binds
// the columns input and which must produce the columns output. Columns of
// output already bound by the input are acceptable from the input (the
// engine merges them into results). It fails if no valid plan produces the
// needed columns.
func (pl *Planner) Best(input, output relation.Cols) (*Candidate, error) {
	need := output.Minus(input)
	var best *Candidate
	for _, c := range pl.enumerate(pl.d.RootBinding().Def, input) {
		// The plan must produce the requested columns and re-verify every
		// input column (see Check for why the latter is required).
		if !need.SubsetOf(c.Bound) || !input.SubsetOf(c.Bound) {
			continue
		}
		// Prefer the plan with fewer scans on a cost tie: with uniform
		// default statistics, scan-then-lookup and lookup-then-scan
		// multiply to identical estimates, and only one of them degrades
		// gracefully when the real fanouts are skewed.
		if best == nil || c.Cost < best.Cost || (c.Cost == best.Cost && c.scans < best.scans) {
			cc := c
			best = &cc
		}
	}
	if best == nil {
		return nil, fmt.Errorf("plan: no valid plan computes %v from input %v on this decomposition", output, input)
	}
	return best, nil
}

// All returns every valid candidate plan for the given input columns,
// regardless of output coverage; used by tests and the planner ablation.
func (pl *Planner) All(input relation.Cols) []Candidate {
	return pl.enumerate(pl.d.RootBinding().Def, input)
}

// enumerate generates the valid plans for primitive prim under bound
// columns a, mirroring the rules of Figure 8 generatively.
func (pl *Planner) enumerate(prim decomp.Primitive, a relation.Cols) []Candidate {
	switch p := prim.(type) {
	case *decomp.Unit:
		return []Candidate{{Op: &Unit{U: p}, Bound: p.Cols, Cost: 1, rows: 1}}
	case *decomp.MapEdge:
		fan := pl.stats.Fanout(p)
		var out []Candidate
		if p.Key.SubsetOf(a) {
			for _, sub := range pl.enumerate(pl.d.Var(p.Target).Def, a) {
				out = append(out, Candidate{
					Op:    &Lookup{Edge: p, Sub: sub.Op},
					Bound: sub.Bound.Union(p.Key),
					Cost:  dstruct.LookupCost(p.DS, fan) * sub.Cost,
					rows:  sub.rows,
					scans: sub.scans,
				})
			}
		}
		for _, sub := range pl.enumerate(pl.d.Var(p.Target).Def, a.Union(p.Key)) {
			out = append(out, Candidate{
				Op:    &Scan{Edge: p, Sub: sub.Op},
				Bound: sub.Bound.Union(p.Key),
				Cost:  fan * sub.Cost,
				rows:  fan * sub.rows,
				scans: sub.scans + 1,
			})
		}
		return out
	case *decomp.Join:
		var out []Candidate
		for _, side := range []Side{Left, Right} {
			for _, sub := range pl.enumerate(sideOf(p, side), a) {
				out = append(out, Candidate{
					Op:    &LR{Side: side, Sub: sub.Op},
					Bound: sub.Bound,
					Cost:  sub.Cost,
					rows:  sub.rows,
					scans: sub.scans,
				})
			}
		}
		for _, first := range []Side{Left, Right} {
			firstPrim, secondPrim := p.Left, p.Right
			if first == Right {
				firstPrim, secondPrim = p.Right, p.Left
			}
			for _, q1 := range pl.enumerate(firstPrim, a) {
				for _, q2 := range pl.enumerate(secondPrim, a.Union(q1.Bound)) {
					if !pl.fds.Implies(a.Union(q1.Bound), q2.Bound) {
						continue
					}
					if !pl.fds.Implies(a.Union(q2.Bound), q1.Bound) {
						continue
					}
					cost := q1.Cost + q2.Cost
					if pl.Pessimistic {
						cost = q1.Cost + q1.rows*q2.Cost
					}
					j := &Join{First: first}
					if first == Left {
						j.LeftOp, j.RightOp = q1.Op, q2.Op
					} else {
						j.RightOp, j.LeftOp = q1.Op, q2.Op
					}
					out = append(out, Candidate{
						Op:    j,
						Bound: q1.Bound.Union(q2.Bound),
						// The FD conditions make each outer tuple match at
						// most one inner result, so rows(join) = rows(q1).
						Cost:  cost,
						rows:  q1.rows,
						scans: q1.scans + q2.scans,
					})
				}
			}
		}
		return out
	default:
		panic(fmt.Sprintf("plan: unknown primitive %T", prim))
	}
}

// EstimateRows returns the row estimate for op on decomposition d under
// default statistics, clamped exactly like Candidate.EstimatedRows. It lets
// callers that hold a bare plan (no Candidate) size result buffers the same
// way the engine does.
func EstimateRows(d *decomp.Decomp, op Op) int {
	pl := &Planner{d: d, stats: DefaultStats}
	_, rows := pl.estimate(op, d.RootBinding().Def)
	c := Candidate{rows: rows}
	return c.EstimatedRows()
}

func (pl *Planner) estimate(op Op, prim decomp.Primitive) (cost, rows float64) {
	switch op := op.(type) {
	case *Unit:
		return 1, 1
	case *Lookup:
		sub, rows := pl.estimate(op.Sub, pl.d.Var(op.Edge.Target).Def)
		return dstruct.LookupCost(op.Edge.DS, pl.stats.Fanout(op.Edge)) * sub, rows
	case *Scan:
		fan := pl.stats.Fanout(op.Edge)
		sub, rows := pl.estimate(op.Sub, pl.d.Var(op.Edge.Target).Def)
		return fan * sub, fan * rows
	case *LR:
		j := prim.(*decomp.Join)
		return pl.estimate(op.Sub, sideOf(j, op.Side))
	case *Join:
		j := prim.(*decomp.Join)
		outerOp, innerOp := op.LeftOp, op.RightOp
		outerPrim, innerPrim := j.Left, j.Right
		if op.First == Right {
			outerOp, innerOp = op.RightOp, op.LeftOp
			outerPrim, innerPrim = j.Right, j.Left
		}
		c1, r1 := pl.estimate(outerOp, outerPrim)
		c2, _ := pl.estimate(innerOp, innerPrim)
		if pl.Pessimistic {
			return c1 + r1*c2, r1
		}
		return c1 + c2, r1
	default:
		return math.Inf(1), 0
	}
}
