package plan

import (
	"repro/internal/colblock"
	"repro/internal/instance"
	"repro/internal/relation"
	"repro/internal/value"
)

// The methods below are for this package's tests only: the engine reads a
// BatchResult through Collect, EachTuple and EachRow, runs a closure
// Program only through StreamView, and costs plans while enumerating them.

// Estimate recomputes the cost of an existing plan under the planner's
// current statistics, with the estimator enumeration uses.
func (pl *Planner) Estimate(op Op) float64 {
	cost, _ := pl.estimate(op, pl.d.RootBinding().Def)
	return cost
}

// Collect executes the program and gathers π_out of the results,
// de-duplicated and in deterministic order — the compiled counterpart of
// CollectSized, with the projection and dedup fused into the emit path. The
// cardinality hint sizes the dedup map and result slice once, exactly like
// the interpreted path. Rows that duplicate an earlier projection cost no
// allocation: the dedup key is encoded straight from the registers into a
// reused scratch buffer.
func (p *Program) Collect(in *instance.Instance, s relation.Tuple, hint int) []relation.Tuple {
	if hint < 0 {
		hint = 0
	}
	st := p.getState()
	defer p.putState(st)
	seen := make(map[string]struct{}, hint)
	res := make([]relation.Tuple, 0, hint)
	outNames := p.cols.Names()
	var buf []byte
	st.emit = func() bool {
		if st.nUnset != 0 {
			// Partial-unit slow path: materialize the present columns only
			// (the interpreter's projection drops missing columns) and key
			// the dedup on the full cols+vals encoding. The 0xFE/0xFF
			// prefixes keep the two key spaces disjoint.
			t := p.emitPartial(st)
			buf = append(buf[:0], 0xFE)
			buf = t.AppendKey(buf)
			if _, ok := seen[string(buf)]; !ok {
				seen[string(buf)] = struct{}{}
				res = append(res, t)
			}
			return true
		}
		buf = append(buf[:0], 0xFF)
		for _, r := range p.out {
			buf = st.regs[r].AppendEncode(buf)
		}
		if _, ok := seen[string(buf)]; !ok {
			seen[string(buf)] = struct{}{}
			vals := make([]value.Value, len(p.out))
			for i, r := range p.out {
				vals[i] = st.regs[r]
			}
			res = append(res, relation.SortedTuple(outNames, vals))
		}
		return true
	}
	p.run(st, in, s)
	relation.SortTuples(res)
	return res
}

// Stream executes the program and calls f with a fresh projected tuple per
// result, duplicates included, stopping when f returns false — the compiled
// counterpart of Exec composed with per-row projection. It reports whether
// the traversal ran to completion.
func (p *Program) Stream(in *instance.Instance, s relation.Tuple, f func(relation.Tuple) bool) bool {
	st := p.getState()
	defer p.putState(st)
	outNames := p.cols.Names()
	st.emit = func() bool {
		if st.nUnset != 0 {
			return f(p.emitPartial(st))
		}
		vals := make([]value.Value, len(p.out))
		for i, r := range p.out {
			vals[i] = st.regs[r]
		}
		return f(relation.SortedTuple(outNames, vals))
	}
	return p.run(st, in, s)
}

// Rows returns the number of results, duplicates included.
func (r *BatchResult) Rows() int { return r.st.cur.blk.N }

// NumCols returns the arity of the projection — len(OutCols of the program).
func (r *BatchResult) NumCols() int { return len(r.st.p.out) }

// Col returns output column j (in OutCols order) as raw codes, one per
// result row. It aliases the execution state: the slice is valid until
// Release, and codes decode through View. This is the zero-copy consumption
// path — aggregations sweep the column words directly instead of
// materializing tuples through EachTuple.
func (r *BatchResult) Col(j int) []colblock.Code {
	st := r.st
	return st.cur.blk.Cols[st.p.out[j]][:st.cur.blk.N]
}

// View returns the dictionary view the result's codes decode through: the
// one of the instance version the program ran against.
func (r *BatchResult) View() colblock.View { return r.st.vw }
