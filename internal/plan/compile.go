package plan

import (
	"fmt"
	"sync"

	"repro/internal/decomp"
	"repro/internal/instance"
	"repro/internal/relation"
	"repro/internal/value"
)

// This file implements the plan compiler: the staged-execution tier between
// the recursive interpreter (exec.go) and fully generated code (package
// codegen). Compile lowers a valid Figure-7 plan tree into a chain of
// pre-bound closures over a flat register file — one register per column the
// plan ever binds. Everything the interpreter resolves per row is resolved
// once at compile time:
//
//   - operator dispatch: the type switch becomes one closure call per node;
//   - decomposition navigation: Decomp().Var(target) and the edge→slot map
//     lookups become integer slot indices captured in the closure;
//   - constraint threading: Project/Merge/Matches on immutable tuples become
//     positional compares and writes against the register file, with the
//     check-vs-bind decision for every column made statically from the plan's
//     validity derivation;
//   - the emit path: Collect's projection + dedup run straight out of the
//     registers, so a steady-state scan emits without allocating.
//
// The interpreter remains the semantic oracle: a Program is only ever an
// optimization, and the differential tests in compile_test.go run every plan
// of the corpus both ways.
//
// The engine no longer runs a Program: a cached shape runs its batch
// program (batch.go), then the interpreter. This file stays only because
// the frozen benchmark times plan.exec_compiled_us with Compile and
// StreamView; it goes, with its tests and benchmarks, when those probes
// retire.

// A Program is a compiled query plan: closures pre-bound to slot indices and
// register positions, executable against any instance of the decomposition
// it was compiled for (slot layout is a pure function of the decomposition;
// see Instance.SlotOfEdge). A Program is immutable after Compile and safe
// for concurrent use; per-execution state lives in a pooled progState.
type Program struct {
	root  cfn
	reg   []string // register index → column name
	nIn   int      // input pattern arity; registers [0, nIn) hold the pattern
	out   []int    // i-th output column (sorted) → register index
	cols  relation.Cols
	scans []*scanDesc
	nJoin int
	nKeys []int // scratch sizes for multi-column lookup keys

	pool sync.Pool
}

// cfn is one compiled operator: run against node n with the current register
// state, returning false to stop the whole execution (the interpreter's
// emit-false propagation).
type cfn func(st *progState, n *instance.Node) bool

// progState is the per-execution state of a Program: the register file and
// the per-run closures that must capture it. States are pooled per Program —
// a query in steady state reuses registers, scan callbacks, and key scratch
// without allocating.
type progState struct {
	in        *instance.Instance // the instance of this run: what boxes a node's words
	regs      []value.Value
	scanFns   []func(k relation.Tuple, child *instance.Node) bool
	joinNodes []*instance.Node
	keyVals   [][]value.Value
	emit      func() bool

	// The StreamView emit path is fully prebound so a steady-state query
	// allocates nothing: viewVals is the reused projection scratch, view the
	// tuple aliasing it, userF the caller's callback for this run, and
	// emitView the closure (built once in newState) that fills the scratch
	// and calls userF.
	viewVals []value.Value
	view     relation.Tuple
	userF    func(relation.Tuple) bool
	emitView func() bool

	// unset tracks registers whose column is statically bound but dynamically
	// missing — only possible when a unit tuple is partial (a root-level unit
	// before the first insert). nUnset != 0 reroutes every operator to a
	// name-based slow path that mirrors the interpreter's partial-tuple
	// semantics exactly; in normal operation it stays 0 and costs one branch.
	unset   []bool
	nUnset  int
	stopped bool
}

func (st *progState) markUnset(r int) {
	if !st.unset[r] {
		st.unset[r] = true
		st.nUnset++
	}
}

func (st *progState) clearUnset(r int) {
	if st.unset[r] {
		st.unset[r] = false
		st.nUnset--
	}
}

// regPos pairs a positional index into a key or unit tuple with the register
// the column lives in.
type regPos struct {
	pos, reg int
}

// scanDesc is the compile-time description of one qscan: per-execution
// callbacks are built from it when a progState is created, then reused for
// every invocation of the scan.
type scanDesc struct {
	nKey   int
	names  []string // key column names, sorted
	static []bool   // static boundness per key column (true → check)
	checks []regPos
	binds  []regPos
	regs   []int // key column → register, aligned with names
	sub    cfn
}

// unitDesc describes the leaf comparison/binding of one qunit for the
// name-based slow path.
type unitDesc struct {
	names  []string
	static []bool
	regs   []int
	cont   func(st *progState) bool
}

// compiler carries the state of one Compile call: the register allocator,
// the mutable bound-column set (mutated in execution order, which compile
// follows), and the per-plan operator descriptors.
type compiler struct {
	in    *instance.Instance
	d     *decomp.Decomp
	reg   map[string]int
	names []string
	bound map[string]bool
	prog  *Program
	err   error
}

func (c *compiler) regOf(col string) int {
	if r, ok := c.reg[col]; ok {
		return r
	}
	r := len(c.names)
	c.reg[col] = r
	c.names = append(c.names, col)
	return r
}

func (c *compiler) fail(format string, args ...any) cfn {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	return func(*progState, *instance.Node) bool { return false }
}

// Compile lowers op — a plan valid for input columns input — into a Program
// producing the projection onto output. It returns an error when the plan is
// not executable as compiled code (an unbound lookup key, an operator shape
// the validity judgment would reject, an output column the plan never
// binds); callers fall back to the interpreter in that case.
func Compile(in *instance.Instance, op Op, input, output relation.Cols) (*Program, error) {
	c := &compiler{
		in:    in,
		d:     in.Decomp(),
		reg:   make(map[string]int),
		bound: make(map[string]bool),
		prog:  &Program{},
	}
	for _, col := range input.Names() {
		c.regOf(col)
		c.bound[col] = true
	}
	c.prog.nIn = input.Len()
	root := c.compile(op, c.d.RootBinding().Def, func(st *progState) bool { return st.emit() })
	if c.err != nil {
		return nil, c.err
	}
	p := c.prog
	p.root = root
	p.reg = c.names
	p.cols = output
	for _, col := range output.Names() {
		r, ok := c.reg[col]
		if !ok {
			return nil, fmt.Errorf("plan: compiled plan %s never binds output column %q", op, col)
		}
		p.out = append(p.out, r)
	}
	p.pool.New = func() any { return p.newState() }
	return p, nil
}

// compile lowers one operator. It is called in execution order, so c.bound
// always holds exactly the columns bound when the operator starts — the
// invariant that lets every check-vs-bind decision be made statically.
func (c *compiler) compile(op Op, prim decomp.Primitive, cont func(st *progState) bool) cfn {
	switch op := op.(type) {
	case *Unit:
		return c.compileUnit(op, cont)
	case *Lookup:
		return c.compileLookup(op, cont)
	case *Scan:
		return c.compileScan(op, cont)
	case *LR:
		j, ok := prim.(*decomp.Join)
		if !ok {
			return c.fail("plan: qlr over non-join primitive %T", prim)
		}
		return c.compile(op.Sub, sideOf(j, op.Side), cont)
	case *Join:
		j, ok := prim.(*decomp.Join)
		if !ok {
			return c.fail("plan: qjoin over non-join primitive %T", prim)
		}
		return c.compileJoin(op, j, cont)
	default:
		return c.fail("plan: cannot compile operator %T", op)
	}
}

func (c *compiler) compileUnit(op *Unit, cont func(st *progState) bool) cfn {
	u := op.U
	if _, ok := c.in.SlotOfUnit(u); !ok {
		return c.fail("plan: unit primitive not in decomposition")
	}
	names := u.Cols.Names()
	d := &unitDesc{names: names, cont: cont}
	var checks, binds []regPos
	for i, col := range names {
		r := c.regOf(col)
		d.regs = append(d.regs, r)
		d.static = append(d.static, c.bound[col])
		if c.bound[col] {
			checks = append(checks, regPos{pos: i, reg: r})
		} else {
			binds = append(binds, regPos{pos: i, reg: r})
			c.bound[col] = true
		}
	}
	nCols := len(names)
	return func(st *progState, n *instance.Node) bool {
		ut := n.UnitAt(st.in, u)
		if st.nUnset == 0 && ut.Len() == nCols {
			for _, cp := range checks {
				if ut.ValueAt(cp.pos) != st.regs[cp.reg] {
					return true
				}
			}
			for _, bp := range binds {
				st.regs[bp.reg] = ut.ValueAt(bp.pos)
			}
			return cont(st)
		}
		return unitSlow(st, d, ut)
	}
}

// unitSlow mirrors the interpreter's u.Matches(constraint) followed by
// constraint.Merge(u) when the unit tuple is partial or earlier registers
// are unset: columns present in both are compared, columns only in the unit
// are bound, and statically bound columns the unit lacks keep their register
// value (or stay unset).
func unitSlow(st *progState, d *unitDesc, ut relation.Tuple) bool {
	for i, col := range d.names {
		r := d.regs[i]
		v, ok := ut.Get(col)
		if !ok {
			if !d.static[i] {
				st.markUnset(r)
			}
			// A statically bound register keeps its value: the merge is
			// right-biased but the unit has nothing to override with.
			continue
		}
		if d.static[i] && !st.unset[r] {
			if v != st.regs[r] {
				return true
			}
			continue
		}
		st.regs[r] = v
		st.clearUnset(r)
	}
	return d.cont(st)
}

func (c *compiler) compileLookup(op *Lookup, cont func(st *progState) bool) cfn {
	e := op.Edge
	if _, ok := c.in.SlotOfEdge(e); !ok {
		return c.fail("plan: lookup edge not in decomposition")
	}
	names := e.Key.Names()
	regs := make([]int, len(names))
	for i, col := range names {
		if !c.bound[col] {
			return c.fail("plan: qlookup[%s] key column %q not bound", e.Key, col)
		}
		regs[i] = c.regOf(col)
	}
	sub := c.compile(op.Sub, c.d.Var(e.Target).Def, cont)
	if len(names) == 1 {
		r := regs[0]
		return func(st *progState, n *instance.Node) bool {
			if st.nUnset != 0 && st.unset[r] {
				return true // the interpreter's partial key misses
			}
			child, ok := n.MapAt(st.in, e).GetByValue(st.regs[r])
			if !ok {
				return true
			}
			return sub(st, child)
		}
	}
	scratch := len(c.prog.nKeys)
	c.prog.nKeys = append(c.prog.nKeys, len(names))
	return func(st *progState, n *instance.Node) bool {
		kv := st.keyVals[scratch]
		for i, r := range regs {
			if st.nUnset != 0 && st.unset[r] {
				return true
			}
			kv[i] = st.regs[r]
		}
		child, ok := n.MapAt(st.in, e).Get(relation.SortedTuple(names, kv))
		if !ok {
			return true
		}
		return sub(st, child)
	}
}

func (c *compiler) compileScan(op *Scan, cont func(st *progState) bool) cfn {
	e := op.Edge
	if _, ok := c.in.SlotOfEdge(e); !ok {
		return c.fail("plan: scan edge not in decomposition")
	}
	names := e.Key.Names()
	sd := &scanDesc{nKey: len(names), names: names}
	for i, col := range names {
		r := c.regOf(col)
		sd.regs = append(sd.regs, r)
		sd.static = append(sd.static, c.bound[col])
		if c.bound[col] {
			sd.checks = append(sd.checks, regPos{pos: i, reg: r})
		} else {
			sd.binds = append(sd.binds, regPos{pos: i, reg: r})
			c.bound[col] = true
		}
	}
	sd.sub = c.compile(op.Sub, c.d.Var(e.Target).Def, cont)
	id := len(c.prog.scans)
	c.prog.scans = append(c.prog.scans, sd)
	return func(st *progState, n *instance.Node) bool {
		n.MapAt(st.in, e).Range(st.scanFns[id])
		return !st.stopped
	}
}

// scanRowSlow handles one scanned entry when registers are unset or the key
// tuple is not the edge's full key: the interpreter's k.Matches(constraint)
// then constraint.Merge(k), name-based.
func scanRowSlow(st *progState, sd *scanDesc, k relation.Tuple, child *instance.Node) bool {
	for i, col := range sd.names {
		r := sd.regs[i]
		v, ok := k.Get(col)
		if !ok {
			continue
		}
		if sd.static[i] && !st.unset[r] {
			if v != st.regs[r] {
				return true
			}
			continue
		}
		st.regs[r] = v
		st.clearUnset(r)
	}
	if !sd.sub(st, child) {
		st.stopped = true
		return false
	}
	return true
}

func (c *compiler) compileJoin(op *Join, j *decomp.Join, cont func(st *progState) bool) cfn {
	outerOp, innerOp := op.LeftOp, op.RightOp
	outerPrim, innerPrim := j.Left, j.Right
	if op.First == Right {
		outerOp, innerOp = op.RightOp, op.LeftOp
		outerPrim, innerPrim = j.Right, j.Left
	}
	slot := c.prog.nJoin
	c.prog.nJoin++
	// innerFn is assigned after the outer side compiles (compilation follows
	// execution order so the inner side sees the outer's bound columns); the
	// continuation captures the variable, not its current value.
	var innerFn cfn
	outerFn := c.compile(outerOp, outerPrim, func(st *progState) bool {
		return innerFn(st, st.joinNodes[slot])
	})
	innerFn = c.compile(innerOp, innerPrim, cont)
	return func(st *progState, n *instance.Node) bool {
		st.joinNodes[slot] = n
		return outerFn(st, n)
	}
}

// newState builds a fresh execution state wired to this program: the scan
// callbacks are constructed once here and reused across every scan
// invocation of every run that borrows the state.
func (p *Program) newState() *progState {
	st := &progState{
		regs:    make([]value.Value, len(p.reg)),
		unset:   make([]bool, len(p.reg)),
		scanFns: make([]func(relation.Tuple, *instance.Node) bool, len(p.scans)),
	}
	if p.nJoin > 0 {
		st.joinNodes = make([]*instance.Node, p.nJoin)
	}
	if len(p.nKeys) > 0 {
		st.keyVals = make([][]value.Value, len(p.nKeys))
		for i, n := range p.nKeys {
			st.keyVals[i] = make([]value.Value, n)
		}
	}
	st.viewVals = make([]value.Value, len(p.out))
	st.view = relation.SortedTuple(p.cols.Names(), st.viewVals)
	st.emitView = func() bool {
		if st.nUnset != 0 {
			return st.userF(p.emitPartial(st))
		}
		for i, r := range p.out {
			st.viewVals[i] = st.regs[r]
		}
		return st.userF(st.view)
	}
	for i, sd := range p.scans {
		sd := sd
		st.scanFns[i] = func(k relation.Tuple, child *instance.Node) bool {
			if st.nUnset != 0 || k.Len() != sd.nKey {
				return scanRowSlow(st, sd, k, child)
			}
			for _, cp := range sd.checks {
				if k.ValueAt(cp.pos) != st.regs[cp.reg] {
					return true
				}
			}
			for _, bp := range sd.binds {
				st.regs[bp.reg] = k.ValueAt(bp.pos)
			}
			if !sd.sub(st, child) {
				st.stopped = true
				return false
			}
			return true
		}
	}
	return st
}

func (p *Program) getState() *progState {
	st := p.pool.Get().(*progState)
	st.stopped = false
	// Register *values* never need clearing — every read is dominated by a
	// write in execution order — but unset flags from a previous partial-unit
	// run must not leak into this one.
	if st.nUnset != 0 {
		for i := range st.unset {
			st.unset[i] = false
		}
		st.nUnset = 0
	}
	return st
}

func (p *Program) putState(st *progState) {
	st.in = nil
	st.emit = nil
	st.userF = nil
	for i := range st.joinNodes {
		st.joinNodes[i] = nil
	}
	p.pool.Put(st)
}

// run loads the input pattern into the registers and executes the program.
// s must bind exactly the input columns the program was compiled for; the
// engine guarantees this because the plan-cache signature is s's domain.
func (p *Program) run(st *progState, in *instance.Instance, s relation.Tuple) bool {
	if s.Len() != p.nIn {
		panic(fmt.Sprintf("plan: compiled program for %d input columns run with pattern %v", p.nIn, s))
	}
	st.in = in
	for i := 0; i < p.nIn; i++ {
		st.regs[i] = s.ValueAt(i)
	}
	return p.root(st, in.Root())
}

// StreamView is Stream without the allocations: f receives a view tuple
// backed by a scratch buffer that is overwritten by the next result and must
// not be retained — project or copy it first (Project copies). The whole
// emit machinery is prebound into the pooled state, so a steady-state
// StreamView run allocates nothing at all. This is the emit loop for
// counting, filtering, and the engine's internal read-project-discard paths.
func (p *Program) StreamView(in *instance.Instance, s relation.Tuple, f func(relation.Tuple) bool) bool {
	st := p.getState()
	defer p.putState(st)
	st.userF = f
	st.emit = st.emitView
	return p.run(st, in, s)
}

// emitPartial materializes the projection when some output registers are
// unset (partial root units): only the present columns appear, matching the
// interpreter's Merge-then-Project semantics.
func (p *Program) emitPartial(st *progState) relation.Tuple {
	names := p.cols.Names()
	cols := make([]string, 0, len(p.out))
	vals := make([]value.Value, 0, len(p.out))
	for i, r := range p.out {
		if st.unset[r] {
			continue
		}
		cols = append(cols, names[i])
		vals = append(vals, st.regs[r])
	}
	return relation.SortedTuple(cols, vals)
}
