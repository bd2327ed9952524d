package plan

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/colblock"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/instance"
	"repro/internal/relation"
	"repro/internal/value"
)

// This file implements the vectorized execution tier: CompileBatch lowers
// the same Figure-7 plan trees Compile accepts into a linear sequence of
// batch stages over columnar tuple blocks (package colblock) instead of a
// chain of per-row closures. Where the closure tier pays one dynamic call
// and several value.Value copies per row per operator, a batch program pays
// one call per operator per *frontier* and moves single machine words:
//
//   - qunit becomes an in-place filter/compact pass over the frontier — the
//     fused filter→project loop;
//   - qlookup becomes a batch probe: one point lookup per surviving row,
//     compacted in place;
//   - qscan becomes a fan-out: each row's map level is bulk-extracted
//     through the dstruct Entries capability (instance.AppendMapEntries)
//     and surviving entries are appended to the next frontier column-wise;
//   - qjoin becomes a save/load pair around the linearized outer and inner
//     stages, carrying the per-row join node in a frontier column.
//
// A range query (CompileBatchRange) is the same pipeline with one column
// held to bounds each run supplies: the scan of a level keyed by that column
// extracts only the entries in range, and wherever else the column becomes
// bound a filter stage compacts the frontier right behind the binding stage.
//
// The frontier's columns hold the same colblock.Codes the instance stores —
// a node's unit words, a container's key words — so the scan, seek, probe and
// filter stages append and compare stored words directly: nothing is encoded
// on the way in except the pattern, once per run, and nothing is decoded
// before a row is known to be part of the answer. The closure tier remains
// the oracle and the fallback: CompileBatch rejects exactly what Compile
// rejects, and a stage that meets a shape the batch tier does not model (a
// unit nothing has been written to yet) bails out at run time before
// emitting anything, letting the engine re-run the query on the closure tier
// with no duplicated results.

// A BatchProgram is a vectorized query plan: a linear stage pipeline over a
// columnar frontier. Like Program it is immutable after CompileBatch and
// safe for concurrent use; per-execution state (blocks, scratch, result)
// lives in a pooled batchState.
type BatchProgram struct {
	stages []bstage
	reg    []string // register index → column name
	nIn    int      // input pattern arity; registers [0, nIn) hold the pattern
	out    []int    // i-th output column (sorted) → register index
	cols   relation.Cols
	nJoin  int
	maxKey int // widest multi-column lookup key

	// A range program (CompileBatchRange) constrains rangeCol to the bounds
	// each RunRange supplies; it is empty for an equality program.
	rangeCol string

	pool sync.Pool
}

// bstage transforms the current frontier in st. Returning false aborts the
// whole execution: the frontier met a shape the batch tier does not model,
// and the caller must fall back to the closure tier. A bailing stage must
// leave no partial results visible (results only exist after every stage
// ran), so fallback never duplicates rows.
type bstage func(st *batchState) bool

// A frontier is one columnar batch of in-flight rows: blk holds the
// register columns (allocated lazily by the stage that first binds each
// register), node holds each row's current instance node, and jn holds one
// saved-node column per active join.
type frontier struct {
	blk  *colblock.Block
	node []*instance.Node
	jn   [][]*instance.Node
}

func newFrontier(nReg, nJoin int) *frontier {
	f := &frontier{blk: colblock.NewBlock(nReg)}
	if nJoin > 0 {
		f.jn = make([][]*instance.Node, nJoin)
	}
	return f
}

// truncate compacts the frontier to its first w rows: the given register
// columns, the node column, and the active join columns.
func (f *frontier) truncate(w int, regs []int, jn []int) {
	for _, r := range regs {
		f.blk.Cols[r] = f.blk.Cols[r][:w]
	}
	f.node = cutNodes(f.node, w)
	for _, j := range jn {
		f.jn[j] = cutNodes(f.jn[j], w)
	}
	f.blk.N = w
}

// sizedCodes returns s resized to n rows, reallocating in whole morsels
// only when capacity is short.
func sizedCodes(s []colblock.Code, n int) []colblock.Code {
	if cap(s) < n {
		return make([]colblock.Code, n, colblock.CeilRows(n))
	}
	return s[:n]
}

func sizedNodes(s []*instance.Node, n int) []*instance.Node {
	if cap(s) < n {
		return make([]*instance.Node, n, colblock.CeilRows(n))
	}
	return s[:n]
}

// cutNodes returns s cut to its first w nodes with the rest set to nil. No
// node slice of a batchState keeps a node behind its length: a pooled state
// outlives the instance it last ran on (sync.Pool holds it for two more
// collections), and one stale root there keeps every node of that instance.
func cutNodes(s []*instance.Node, w int) []*instance.Node {
	clear(s[w:])
	return s[:w]
}

// batchState is the pooled per-execution state of a BatchProgram: the two
// frontiers stages ping-pong between, the view of the instance's dictionary
// the run decodes through, scratch for bulk extraction and lookup keys, and
// the embedded result handle — so a steady-state Run→EachTuple→Release cycle
// allocates nothing.
type batchState struct {
	p        *BatchProgram
	vw       colblock.View
	cur, nxt *frontier

	eks []colblock.Code  // bulk-extraction scratch: key words, one key after another
	ens []*instance.Node // bulk-extraction scratch: children

	// Inverted-probe scratch (lookup stages): when a run of frontier rows
	// all probe one linear-scan map, buildProbe extracts its entries once
	// into eks/ens and indexes the key words in the open-addressed table
	// ptab (entry index + 1, 0 is empty) — turning O(rows×entries) word
	// compares into O(rows+entries). kc is the per-row probe key for
	// multi-column lookups.
	ptab []int32
	kc   []colblock.Code

	// A range program's bounds for this run (RunRange): rg is what the
	// filter stages test, lo and hi point at the same bounds for ranged
	// extraction (nil is unbounded).
	rg     Range
	lo, hi *value.Value

	// Result scratch: the output columns gathered once (outCols), and the
	// surviving row indices (distinctRows), sorted once sorted is set
	// (sortedRows). The dedup table itself is ptab.
	outc   [][]colblock.Code
	rows   []int32
	sorted bool

	// EachTuple's zero-alloc view, prebound like progState.emitView.
	viewVals []value.Value
	view     relation.Tuple

	res BatchResult
}

// bcompiler carries the state of one CompileBatch call. It mirrors compiler
// exactly — same register allocator, same execution-order bound-set walk —
// plus the stack of active join columns, so the static check-vs-bind
// decisions agree with the closure tier by construction.
type bcompiler struct {
	in       *instance.Instance
	d        *decomp.Decomp
	reg      map[string]int
	names    []string
	bound    map[string]bool
	jnActive []int
	rangeCol string // "" unless compiling a range program
	prog     *BatchProgram
	err      error

	reads  []readAt    // register reads, per stage, for liveness analysis
	keeps  []liveKeep  // keep-lists to fill once the last read of each register is known
	prunes []livePrune // bind-lists to cut down to the registers somebody reads
}

// readAt records that the stage at index stage reads register reg.
type readAt struct{ stage, reg int }

// liveKeep is a deferred liveness decision: the stage at index stage copies
// or compacts the registers in [0, live), but only those still read by a
// later stage (or projected by the output) matter. CompileBatch fills keep
// with that subset once every stage is emitted — dead registers (an input
// column the output drops, say) then cost nothing to carry.
type liveKeep struct {
	stage int
	live  int
	keep  *[]int
}

// livePrune is the same decision for the registers a stage binds: a unit or
// key column no later stage reads and the output does not project need not
// be materialized, so CompileBatch drops it from the stage's bind-list. A
// fused unit left with nothing to bind and nothing to check is then not
// read at all — it contributes no column and constrains no row, so even an
// unwritten one changes nothing about the answer.
type livePrune struct {
	stage int
	binds *[]regPos
}

// pruneFor registers binds, the bind-list of the stage about to be appended,
// for the liveness fixup. The stage must read the list through the variable
// it passes here.
func (c *bcompiler) pruneFor(binds *[]regPos) {
	c.prunes = append(c.prunes, livePrune{stage: len(c.prog.stages), binds: binds})
}

// readReg records a register read by the stage about to be appended.
func (c *bcompiler) readReg(r int) {
	c.reads = append(c.reads, readAt{stage: len(c.prog.stages), reg: r})
}

// keepFor registers a liveness fixup for the stage about to be appended and
// returns the slice CompileBatch will fill with the still-needed subset of
// [0, live).
func (c *bcompiler) keepFor(live int) *[]int {
	k := new([]int)
	c.keeps = append(c.keeps, liveKeep{stage: len(c.prog.stages), live: live, keep: k})
	return k
}

func (c *bcompiler) regOf(col string) int {
	if r, ok := c.reg[col]; ok {
		return r
	}
	r := len(c.names)
	c.reg[col] = r
	c.names = append(c.names, col)
	return r
}

func (c *bcompiler) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// CompileBatch lowers op — a plan valid for input columns input — into a
// BatchProgram producing the projection onto output. It accepts exactly the
// plans Compile accepts and returns an error otherwise; the engine runs the
// interpreter on a shape it rejects and on a run that bails.
func CompileBatch(in *instance.Instance, op Op, input, output relation.Cols) (*BatchProgram, error) {
	return compileBatch(in, op, input, output, "")
}

// CompileBatchRange lowers op into a range program: the projection onto
// output of the tuples whose col lies within bounds supplied per execution
// (RunRange), so one compiled program serves every interval. op must bind
// col — plan for output ∪ {col} — and the pattern must not. The constraint
// is applied where col becomes bound: a scan over an edge keyed exactly by
// col extracts only the entries in range (a seek on an ordered structure),
// and anywhere else — a unit, a multi-column key, either side of a join — a
// filter stage compacts the frontier on col's register right after the
// stage that binds it, so no later stage sees a row out of range.
func CompileBatchRange(in *instance.Instance, op Op, input, output relation.Cols, col string) (*BatchProgram, error) {
	if input.Has(col) {
		return nil, fmt.Errorf("plan: range column %q is bound by the pattern", col)
	}
	return compileBatch(in, op, input, output, col)
}

func compileBatch(in *instance.Instance, op Op, input, output relation.Cols, rangeCol string) (*BatchProgram, error) {
	c := &bcompiler{
		in:       in,
		d:        in.Decomp(),
		reg:      make(map[string]int),
		bound:    make(map[string]bool),
		rangeCol: rangeCol,
		prog:     &BatchProgram{rangeCol: rangeCol},
	}
	for _, col := range input.Names() {
		c.regOf(col)
		c.bound[col] = true
	}
	c.prog.nIn = input.Len()
	c.emit(op, c.d.RootBinding().Def)
	if c.err != nil {
		return nil, c.err
	}
	p := c.prog
	if rangeCol != "" {
		if _, ok := c.reg[rangeCol]; !ok {
			return nil, fmt.Errorf("plan: batch plan %s never binds range column %q", op, rangeCol)
		}
	}
	p.reg = c.names
	p.cols = output
	for _, col := range output.Names() {
		r, ok := c.reg[col]
		if !ok {
			return nil, fmt.Errorf("plan: batch plan %s never binds output column %q", op, col)
		}
		p.out = append(p.out, r)
	}
	// Liveness fixup: a register matters to a stage's copy/compact loops only
	// if a later stage reads it or the output projects it. Dead registers are
	// simply dropped from each stage's keep-list.
	lastRead := make([]int, len(c.names))
	for i := range lastRead {
		lastRead[i] = -1
	}
	for _, rd := range c.reads {
		if rd.stage > lastRead[rd.reg] {
			lastRead[rd.reg] = rd.stage
		}
	}
	for _, r := range p.out {
		lastRead[r] = len(p.stages)
	}
	for _, lk := range c.keeps {
		keep := make([]int, 0, lk.live)
		for r := 0; r < lk.live; r++ {
			if lastRead[r] > lk.stage {
				keep = append(keep, r)
			}
		}
		*lk.keep = keep
	}
	for _, lp := range c.prunes {
		*lp.binds = slices.DeleteFunc(slices.Clone(*lp.binds), func(bp regPos) bool { return lastRead[bp.reg] <= lp.stage })
	}
	p.pool.New = func() any { return p.newBatchState() }
	return p, nil
}

// emit appends the stages for one operator. Like compiler.compile it runs
// in execution order, so c.bound holds exactly the columns bound when the
// operator's first stage starts — and therefore len(c.names) at that point
// is the count of live registers: every allocated register is a bound one.
func (c *bcompiler) emit(op Op, prim decomp.Primitive) {
	if c.err != nil {
		return
	}
	switch op := op.(type) {
	case *Unit:
		c.emitUnit(op)
	case *Lookup:
		c.emitLookup(op)
	case *Scan:
		c.emitScan(op)
	case *LR:
		j, ok := prim.(*decomp.Join)
		if !ok {
			c.fail("plan: qlr over non-join primitive %T", prim)
			return
		}
		c.emit(op.Sub, sideOf(j, op.Side))
	case *Join:
		j, ok := prim.(*decomp.Join)
		if !ok {
			c.fail("plan: qjoin over non-join primitive %T", prim)
			return
		}
		c.emitJoin(op, j)
	default:
		c.fail("plan: cannot batch-compile operator %T", op)
	}
}

// emitUnit lowers a qunit to an in-place filter/compact stage: check the
// statically bound columns word against word, bind the fresh ones by copying
// the node's words, and compact survivors to the front of the frontier. A
// unit nothing has been written to (a root unit before the first insert)
// bails to the closure tier's name-based slow path. The no-check shape — a
// unit none of whose columns is pre-bound, the usual case — skips the
// compaction bookkeeping entirely: every row survives.
func (c *bcompiler) emitUnit(op *Unit) {
	off, ok := c.in.SlotOfUnit(op.U)
	if !ok {
		c.fail("plan: unit primitive not in decomposition")
		return
	}
	if op.U.Cols.IsEmpty() {
		return // nothing to check, bind or find unwritten
	}
	live := len(c.names)
	checks, binds := c.unitRegs(op.U)
	jn := append([]int(nil), c.jnActive...)
	for _, cp := range checks {
		c.readReg(cp.reg)
	}
	all := binds // what constrain sees: liveness prunes binds itself
	c.pruneFor(&binds)
	if len(checks) == 0 {
		c.prog.stages = append(c.prog.stages, func(st *batchState) bool {
			if len(binds) == 0 {
				return true
			}
			f := st.cur
			cols := f.blk.Cols
			n := f.blk.N
			for _, bp := range binds {
				cols[bp.reg] = sizedCodes(cols[bp.reg], n)
			}
			for i := 0; i < n; i++ {
				w := f.node[i].Words()[off:]
				if w[0] == colblock.Unset {
					return false // unwritten unit: the closure tier owns this shape
				}
				for _, bp := range binds {
					cols[bp.reg][i] = w[bp.pos]
				}
			}
			return true
		})
		c.constrain(all)
		return
	}
	keep := c.keepFor(live)
	c.prog.stages = append(c.prog.stages, func(st *batchState) bool {
		f := st.cur
		cols := f.blk.Cols
		n := f.blk.N
		kp := *keep
		for _, bp := range binds {
			cols[bp.reg] = sizedCodes(cols[bp.reg], n)
		}
		w := 0
	rows:
		for i := 0; i < n; i++ {
			uw := f.node[i].Words()[off:]
			if uw[0] == colblock.Unset {
				return false
			}
			for _, cp := range checks {
				if uw[cp.pos] != cols[cp.reg][i] {
					continue rows
				}
			}
			for _, bp := range binds {
				cols[bp.reg][w] = uw[bp.pos]
			}
			if w != i {
				for _, r := range kp {
					cols[r][w] = cols[r][i]
				}
				f.node[w] = f.node[i]
				for _, j := range jn {
					f.jn[j][w] = f.jn[j][i]
				}
			}
			w++
		}
		for _, bp := range binds {
			cols[bp.reg] = cols[bp.reg][:w]
		}
		f.truncate(w, kp, jn)
		return true
	})
	c.constrain(all)
}

// constrain appends a range program's filter stage when binds — the
// registers the stage just appended bound — include the range column: an
// in-place compaction of the frontier to the rows whose value lies within
// the run's bounds. An equality program has no range column and never
// matches.
func (c *bcompiler) constrain(binds []regPos) {
	r, ok := c.reg[c.rangeCol]
	if !ok || !slices.ContainsFunc(binds, func(bp regPos) bool { return bp.reg == r }) {
		return
	}
	jn := append([]int(nil), c.jnActive...)
	c.readReg(r)
	keep := c.keepFor(len(c.names))
	c.prog.stages = append(c.prog.stages, func(st *batchState) bool {
		f := st.cur
		cols := f.blk.Cols
		key := cols[r]
		n := f.blk.N
		kp := *keep
		w := 0
		for i := 0; i < n; i++ {
			if !st.rg.Contains(st.vw.Decode(key[i])) {
				continue
			}
			if w != i {
				for _, rr := range kp {
					cols[rr][w] = cols[rr][i]
				}
				f.node[w] = f.node[i]
				for _, j := range jn {
					f.jn[j][w] = f.jn[j][i]
				}
			}
			w++
		}
		f.truncate(w, kp, jn)
		return true
	})
}

// unitRegs allocates registers for a unit's columns and splits them into
// checks (already bound) and binds (fresh), updating the bound set — the
// shared compile-time step of the standalone and scan-fused unit stages.
func (c *bcompiler) unitRegs(u *decomp.Unit) (checks, binds []regPos) {
	for i, col := range u.Cols.Names() {
		r := c.regOf(col)
		if c.bound[col] {
			checks = append(checks, regPos{pos: i, reg: r})
		} else {
			binds = append(binds, regPos{pos: i, reg: r})
			c.bound[col] = true
		}
	}
	return checks, binds
}

// Inverted-probe thresholds: a lookup stage switches from per-row Get to
// batch extraction when at least probeMinRun consecutive frontier rows
// share one linear-scan map (dlist/slist) holding at least probeMinEntries
// entries — below that, building the table costs more than the linear
// scans it replaces.
const (
	probeMinRun     = 4
	probeMinEntries = 8
)

// resetTab returns the pooled open-addressed table ptab emptied and sized
// for n entries at load factor ≤ ½ (a power of two, so a mask wraps it).
// Every table built in it — buildProbe's, distinctRows' — hashes with
// colblock's one fold, whose finish is what lets consecutive inline keys
// reach both parities of the slots.
func (st *batchState) resetTab(n int) []int32 {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(st.ptab) < size {
		st.ptab = make([]int32, size)
	} else {
		st.ptab = st.ptab[:size]
		clear(st.ptab)
	}
	return st.ptab
}

// buildProbe extracts the container m into the pooled probe table: its key
// words, nKey per entry, in eks with the children beside them in ens, and an
// open-addressed index over the entries (load factor ≤ ½) in ptab. The words
// are the ones the frontier's registers hold, so a probe compares them as
// they are; collisions terminate because map keys are unique.
func (st *batchState) buildProbe(m dstruct.Words[*instance.Node], nKey int) {
	st.setEntries(m.AppendEntries(st.eks[:0], st.ens[:0]))
	mask := uint64(len(st.resetTab(len(st.ens))) - 1)
	for e := range st.ens {
		idx := colblock.Hash(st.eks[e*nKey:(e+1)*nKey]) & mask
		for st.ptab[idx] != 0 {
			idx = (idx + 1) & mask
		}
		st.ptab[idx] = int32(e + 1)
	}
}

// probeGet1 answers a single-column probe against the table buildProbe
// built with nKey = 1.
func (st *batchState) probeGet1(c colblock.Code) (*instance.Node, bool) {
	mask := uint64(len(st.ptab) - 1)
	for idx := colblock.Hash1(c) & mask; ; idx = (idx + 1) & mask {
		t := st.ptab[idx]
		if t == 0 {
			return nil, false
		}
		if e := int(t) - 1; st.eks[e] == c {
			return st.ens[e], true
		}
	}
}

// probeGet answers a multi-column probe (key codes in edge-key column
// order) against the table buildProbe built with nKey = len(kc).
func (st *batchState) probeGet(kc []colblock.Code) (*instance.Node, bool) {
	nKey := len(kc)
	mask := uint64(len(st.ptab) - 1)
	for idx := colblock.Hash(kc) & mask; ; idx = (idx + 1) & mask {
		t := st.ptab[idx]
		if t == 0 {
			return nil, false
		}
		if e := int(t) - 1; slices.Equal(st.eks[e*nKey:(e+1)*nKey], kc) {
			return st.ens[e], true
		}
	}
}

// emitLookup lowers a qlookup to a batch probe: look each surviving row's
// key registers — stored words already — up in the row's map level, and
// compact hits (with their child nodes) in place. Lookups bind nothing, so
// the live set is unchanged.
//
// The row loop runs over runs of rows sharing one node — after a join
// reload the whole frontier is typically a single run — and when a run's
// map is a linear-scan structure large enough to clear the inversion
// thresholds, the stage probes batch-at-a-time: extract and index the
// entries once (buildProbe), then answer each row by hashed word compares
// instead of an O(entries) scan per row.
func (c *bcompiler) emitLookup(op *Lookup) {
	e := op.Edge
	slot, ok := c.in.SlotOfEdge(e)
	if !ok {
		c.fail("plan: lookup edge not in decomposition")
		return
	}
	names := e.Key.Names()
	regs := make([]int, len(names))
	for i, col := range names {
		if !c.bound[col] {
			c.fail("plan: qlookup[%s] key column %q not bound", e.Key, col)
			return
		}
		regs[i] = c.regOf(col)
	}
	live := len(c.names)
	jn := append([]int(nil), c.jnActive...)
	for _, r := range regs {
		c.readReg(r)
	}
	keep := c.keepFor(live)
	if len(names) == 1 {
		r := regs[0]
		c.prog.stages = append(c.prog.stages, func(st *batchState) bool {
			f := st.cur
			cols := f.blk.Cols
			key := cols[r]
			n := f.blk.N
			kp := *keep
			w := 0
			for i := 0; i < n; {
				node := f.node[i]
				run := i + 1
				for run < n && f.node[run] == node {
					run++
				}
				m := node.Map(slot)
				if kind := m.Kind(); (kind == dstruct.DListKind || kind == dstruct.SListKind) &&
					run-i >= probeMinRun && m.Len() >= probeMinEntries {
					st.buildProbe(m, 1)
					for ; i < run; i++ {
						child, ok := st.probeGet1(key[i])
						if !ok {
							continue
						}
						if w != i {
							for _, rr := range kp {
								cols[rr][w] = cols[rr][i]
							}
							for _, j := range jn {
								f.jn[j][w] = f.jn[j][i]
							}
						}
						f.node[w] = child
						w++
					}
					continue
				}
				for ; i < run; i++ {
					child, ok := m.Get1(st.vw, key[i])
					if !ok {
						continue
					}
					if w != i {
						for _, rr := range kp {
							cols[rr][w] = cols[rr][i]
						}
						for _, j := range jn {
							f.jn[j][w] = f.jn[j][i]
						}
					}
					f.node[w] = child
					w++
				}
			}
			f.truncate(w, kp, jn)
			return true
		})
	} else {
		if len(names) > c.prog.maxKey {
			c.prog.maxKey = len(names)
		}
		nKey := len(names)
		c.prog.stages = append(c.prog.stages, func(st *batchState) bool {
			f := st.cur
			cols := f.blk.Cols
			n := f.blk.N
			kc := st.kc[:nKey]
			kp := *keep
			w := 0
			for i := 0; i < n; {
				node := f.node[i]
				run := i + 1
				for run < n && f.node[run] == node {
					run++
				}
				m := node.Map(slot)
				if kind := m.Kind(); (kind == dstruct.DListKind || kind == dstruct.SListKind) &&
					run-i >= probeMinRun && m.Len() >= probeMinEntries {
					st.buildProbe(m, nKey)
					for ; i < run; i++ {
						for j, r := range regs {
							kc[j] = cols[r][i]
						}
						child, ok := st.probeGet(kc)
						if !ok {
							continue
						}
						if w != i {
							for _, rr := range kp {
								cols[rr][w] = cols[rr][i]
							}
							for _, j := range jn {
								f.jn[j][w] = f.jn[j][i]
							}
						}
						f.node[w] = child
						w++
					}
					continue
				}
				for ; i < run; i++ {
					for j, r := range regs {
						kc[j] = cols[r][i]
					}
					child, ok := m.Get(st.vw, kc)
					if !ok {
						continue
					}
					if w != i {
						for _, rr := range kp {
							cols[rr][w] = cols[rr][i]
						}
						for _, j := range jn {
							f.jn[j][w] = f.jn[j][i]
						}
					}
					f.node[w] = child
					w++
				}
			}
			f.truncate(w, kp, jn)
			return true
		})
	}
	c.emit(op.Sub, c.d.Var(e.Target).Def)
}

// emitScan lowers a qscan to a fan-out stage: bulk-extract each surviving
// row's map level into scratch — key words one key after another, children
// beside them — filter entries against the statically bound key columns word
// against word, and append survivors — copied live registers, freshly bound
// key columns, child node, active join nodes — to the next frontier
// column-wise. The frontiers then swap.
//
// Two fusion rules apply. When the scan's subplan is a bare qunit — the
// tail shape of almost every Figure-7 plan — the unit's checks and binds
// run inside the fan-out loop over the freshly extracted children, saving a
// whole frontier pass (fused scan→filter→project). And when the scan has no
// key checks, the fan-out runs column-at-a-time: one strided copy per bound
// key column, one replication sweep per live register, one bulk node
// append — sweeps over dense arrays instead of an interleaved row loop.
func (c *bcompiler) emitScan(op *Scan) {
	e := op.Edge
	slot, ok := c.in.SlotOfEdge(e)
	if !ok {
		c.fail("plan: scan edge not in decomposition")
		return
	}
	names := e.Key.Names()
	live := len(c.names)
	var checks, binds []regPos
	for i, col := range names {
		r := c.regOf(col)
		if c.bound[col] {
			checks = append(checks, regPos{pos: i, reg: r})
		} else {
			binds = append(binds, regPos{pos: i, reg: r})
			c.bound[col] = true
		}
	}
	nKey := len(names)
	// A range program scanning the level keyed exactly by its range column
	// extracts only the entries in range; a wider key that binds the column
	// is filtered after the stage, like any other bind.
	ranged := nKey == 1 && len(binds) == 1 && names[0] == c.rangeCol
	filter := binds
	if ranged {
		filter = nil
	}
	jn := append([]int(nil), c.jnActive...)
	for _, cp := range checks {
		c.readReg(cp.reg)
	}
	sub, isUnit := op.Sub.(*Unit)
	if isUnit && sub.U.Cols.IsEmpty() {
		isUnit = false // nothing to fuse; emitUnit emits no stage for it either
	}
	if isUnit {
		uoff, ok := c.in.SlotOfUnit(sub.U)
		if !ok {
			c.fail("plan: unit primitive not in decomposition")
			return
		}
		uchecks, ubinds := c.unitRegs(sub.U)
		// A unit check column bound by this scan's own key binds has no
		// frontier column yet — its value for the row is in the key, so the
		// check compares the unit's word with the key's.
		var ufchecks []regPos // against a pre-stage frontier column
		type posPair struct{ upos, kpos int }
		var ukchecks []posPair // against this entry's key words
		for _, cp := range uchecks {
			if cp.reg < live {
				ufchecks = append(ufchecks, cp)
				continue
			}
			for _, bp := range binds {
				if bp.reg == cp.reg {
					ukchecks = append(ukchecks, posPair{upos: cp.pos, kpos: bp.pos})
					break
				}
			}
		}
		for _, cp := range ufchecks {
			c.readReg(cp.reg)
		}
		keep := c.keepFor(live)
		uall := ubinds // what constrain sees: liveness prunes binds and ubinds themselves
		c.pruneFor(&binds)
		c.pruneFor(&ubinds)
		if len(checks) == 0 && len(ufchecks) == 0 && len(ukchecks) == 0 {
			// Every entry survives, so the fused stage runs column-at-a-time:
			// one strided copy per bound key column, one sweep over the
			// children for the bound unit columns, fill sweeps for the live
			// registers, and a bulk node append.
			c.prog.stages = append(c.prog.stages, func(st *batchState) bool {
				f, g := st.cur, st.nxt
				gc := g.blk.Cols
				kp := *keep
				g.reset(kp, jn, binds, ubinds)
				for i, n := 0, f.blk.N; i < n; i++ {
					st.extract(f.node[i].Map(slot), ranged)
					g.bindKeys(binds, st.eks, nKey)
					if len(ubinds) > 0 {
						for _, child := range st.ens {
							uw := child.Words()[uoff:]
							if uw[0] == colblock.Unset {
								return false // unwritten unit: closure tier owns this shape
							}
							for _, bp := range ubinds {
								gc[bp.reg] = append(gc[bp.reg], uw[bp.pos])
							}
						}
					}
					g.fanOut(f, i, kp, jn, st.ens)
				}
				g.blk.N = len(g.node)
				st.cur, st.nxt = g, f
				return true
			})
			c.constrain(filter)
			c.constrain(uall)
			return
		}
		unitChecked := len(ufchecks) > 0 || len(ukchecks) > 0
		c.prog.stages = append(c.prog.stages, func(st *batchState) bool {
			f, g := st.cur, st.nxt
			cols := f.blk.Cols
			gc := g.blk.Cols
			kp := *keep
			g.reset(kp, jn, binds, ubinds)
			for i, n := 0, f.blk.N; i < n; i++ {
				st.extract(f.node[i].Map(slot), ranged)
			entries:
				for e, child := range st.ens {
					k := st.eks[e*nKey : (e+1)*nKey]
					for _, cp := range checks {
						if k[cp.pos] != cols[cp.reg][i] {
							continue entries
						}
					}
					if unitChecked || len(ubinds) > 0 {
						uw := child.Words()[uoff:]
						if uw[0] == colblock.Unset {
							return false // unwritten unit: the closure tier owns this shape
						}
						for _, cp := range ufchecks {
							if uw[cp.pos] != cols[cp.reg][i] {
								continue entries
							}
						}
						for _, pp := range ukchecks {
							if uw[pp.upos] != k[pp.kpos] {
								continue entries
							}
						}
						for _, bp := range ubinds {
							gc[bp.reg] = append(gc[bp.reg], uw[bp.pos])
						}
					}
					for _, r := range kp {
						gc[r] = append(gc[r], cols[r][i])
					}
					for _, bp := range binds {
						gc[bp.reg] = append(gc[bp.reg], k[bp.pos])
					}
					g.node = append(g.node, child)
					for _, j := range jn {
						g.jn[j] = append(g.jn[j], f.jn[j][i])
					}
				}
			}
			g.blk.N = len(g.node)
			st.cur, st.nxt = g, f
			return true
		})
		c.constrain(filter)
		c.constrain(uall)
		return
	}
	keep := c.keepFor(live)
	c.pruneFor(&binds)
	if len(checks) == 0 {
		c.prog.stages = append(c.prog.stages, func(st *batchState) bool {
			f, g := st.cur, st.nxt
			kp := *keep
			g.reset(kp, jn, binds, nil)
			for i, n := 0, f.blk.N; i < n; i++ {
				st.extract(f.node[i].Map(slot), ranged)
				g.bindKeys(binds, st.eks, nKey)
				g.fanOut(f, i, kp, jn, st.ens)
			}
			g.blk.N = len(g.node)
			st.cur, st.nxt = g, f
			return true
		})
		c.constrain(filter)
		c.emit(op.Sub, c.d.Var(e.Target).Def)
		return
	}
	c.prog.stages = append(c.prog.stages, func(st *batchState) bool {
		f, g := st.cur, st.nxt
		cols := f.blk.Cols
		gc := g.blk.Cols
		kp := *keep
		g.reset(kp, jn, binds, nil)
		for i, n := 0, f.blk.N; i < n; i++ {
			st.extract(f.node[i].Map(slot), ranged)
		entries:
			for e, child := range st.ens {
				k := st.eks[e*nKey : (e+1)*nKey]
				for _, cp := range checks {
					if k[cp.pos] != cols[cp.reg][i] {
						continue entries
					}
				}
				for _, r := range kp {
					gc[r] = append(gc[r], cols[r][i])
				}
				for _, bp := range binds {
					gc[bp.reg] = append(gc[bp.reg], k[bp.pos])
				}
				g.node = append(g.node, child)
				for _, j := range jn {
					g.jn[j] = append(g.jn[j], f.jn[j][i])
				}
			}
		}
		g.blk.N = len(g.node)
		st.cur, st.nxt = g, f
		return true
	})
	c.constrain(filter)
	c.emit(op.Sub, c.d.Var(e.Target).Def)
}

// reset empties the columns a fan-out stage is about to fill: the kept
// registers, the ones its key and fused unit bind, the nodes and the active
// join columns.
func (g *frontier) reset(kp, jn []int, binds, ubinds []regPos) {
	for _, r := range kp {
		g.blk.Cols[r] = g.blk.Cols[r][:0]
	}
	for _, bp := range binds {
		g.blk.Cols[bp.reg] = g.blk.Cols[bp.reg][:0]
	}
	for _, bp := range ubinds {
		g.blk.Cols[bp.reg] = g.blk.Cols[bp.reg][:0]
	}
	g.node = cutNodes(g.node, 0)
	for _, j := range jn {
		g.jn[j] = cutNodes(g.jn[j], 0)
	}
}

// bindKeys appends, for every bound key column, that column's word of each
// extracted key: one strided copy per column.
func (g *frontier) bindKeys(binds []regPos, eks []colblock.Code, nKey int) {
	for _, bp := range binds {
		col := g.blk.Cols[bp.reg]
		for k := bp.pos; k < len(eks); k += nKey {
			col = append(col, eks[k])
		}
		g.blk.Cols[bp.reg] = col
	}
}

// fanOut appends the extracted children and, once per child, row i's kept
// registers and join nodes: the part of a check-free fan-out that does not
// look at the entries.
func (g *frontier) fanOut(f *frontier, i int, kp, jn []int, ens []*instance.Node) {
	for _, r := range kp {
		v := f.blk.Cols[r][i]
		col := g.blk.Cols[r]
		for range ens {
			col = append(col, v)
		}
		g.blk.Cols[r] = col
	}
	g.node = append(g.node, ens...)
	for _, j := range jn {
		v := f.jn[j][i]
		col := g.jn[j]
		for range ens {
			col = append(col, v)
		}
		g.jn[j] = col
	}
}

// extract bulk-extracts the map level a scan stage fans out over into the
// eks/ens scratch: every entry, or for a ranged scan only those whose key
// lies within the run's bounds.
func (st *batchState) extract(m dstruct.Words[*instance.Node], ranged bool) {
	if ranged {
		st.setEntries(dstruct.AppendEntriesBetween(m, st.vw, st.lo, st.hi, st.eks[:0], st.ens[:0]))
		return
	}
	st.setEntries(m.AppendEntries(st.eks[:0], st.ens[:0]))
}

// setEntries installs an extraction made over st.eks[:0] and st.ens[:0]. A
// shorter one than the last was written in place, and what it left of the
// last one's children goes (cutNodes says why).
func (st *batchState) setEntries(eks []colblock.Code, ens []*instance.Node) {
	if n := len(ens); n < len(st.ens) {
		clear(st.ens[n:])
	}
	st.eks, st.ens = eks, ens
}

// emitJoin linearizes a qjoin: a save stage records each row's node in join
// column j, the outer side's stages run (compacting and fanning out j along
// with the live registers), a load stage restores each surviving row's node
// from j, and the inner side's stages run. Nested joins stack naturally:
// jnActive tracks every enclosing join whose column is still needed.
func (c *bcompiler) emitJoin(op *Join, j *decomp.Join) {
	outerOp, innerOp := op.LeftOp, op.RightOp
	outerPrim, innerPrim := j.Left, j.Right
	if op.First == Right {
		outerOp, innerOp = op.RightOp, op.LeftOp
		outerPrim, innerPrim = j.Right, j.Left
	}
	slot := c.prog.nJoin
	c.prog.nJoin++
	c.prog.stages = append(c.prog.stages, func(st *batchState) bool {
		f := st.cur
		n := f.blk.N
		f.jn[slot] = sizedNodes(f.jn[slot], n)
		copy(f.jn[slot], f.node)
		return true
	})
	c.jnActive = append(c.jnActive, slot)
	c.emit(outerOp, outerPrim)
	c.prog.stages = append(c.prog.stages, func(st *batchState) bool {
		f := st.cur
		copy(f.node, f.jn[slot][:f.blk.N])
		return true
	})
	c.jnActive = c.jnActive[:len(c.jnActive)-1]
	c.emit(innerOp, innerPrim)
}

func (p *BatchProgram) newBatchState() *batchState {
	st := &batchState{
		p:   p,
		cur: newFrontier(len(p.reg), p.nJoin),
		nxt: newFrontier(len(p.reg), p.nJoin),
	}
	if p.maxKey > 0 {
		st.kc = make([]colblock.Code, p.maxKey)
	}
	st.viewVals = make([]value.Value, len(p.out))
	st.view = relation.SortedTuple(p.cols.Names(), st.viewVals)
	return st
}

func (p *BatchProgram) getBatchState() *batchState {
	return p.pool.Get().(*batchState)
}

func (p *BatchProgram) putBatchState(st *batchState) {
	// Drop node references and the view so a pooled state does not pin freed
	// instance subtrees; lengths are rebuilt from scratch by the next run.
	st.vw = colblock.View{}
	clear(st.cur.node)
	clear(st.nxt.node)
	for _, col := range st.cur.jn {
		clear(col)
	}
	for _, col := range st.nxt.jn {
		clear(col)
	}
	clear(st.ens)
	p.pool.Put(st)
}

// Run executes the program against in with input pattern s, which must bind
// exactly the input columns the program was compiled for (the plan-cache
// signature guarantees this, as for Program). It returns (result, true) on
// success — the caller must Release the result — or (nil, false) when a
// stage bailed: the frontier met a shape the batch tier does not model, and
// the caller should re-run on the closure tier. A bailed run emits nothing,
// so fallback never duplicates results.
func (p *BatchProgram) Run(in *instance.Instance, s relation.Tuple) (*BatchResult, bool) {
	return p.RunRange(in, s, Range{})
}

// RunRange is Run for a program compiled by CompileBatchRange: rg, whose
// column must be the one the program was compiled for, bounds this
// execution. Run itself is the case of no range column at all.
func (p *BatchProgram) RunRange(in *instance.Instance, s relation.Tuple, rg Range) (*BatchResult, bool) {
	if s.Len() != p.nIn {
		panic(fmt.Sprintf("plan: batch program for %d input columns run with pattern %v", p.nIn, s))
	}
	if rg.Col != p.rangeCol {
		panic(fmt.Sprintf("plan: batch program for range column %q run with range column %q", p.rangeCol, rg.Col))
	}
	st := p.getBatchState()
	st.vw = in.View()
	st.rg, st.lo, st.hi = rg, nil, nil
	st.sorted = false
	if rg.HasLo {
		st.lo = &st.rg.Lo
	}
	if rg.HasHi {
		st.hi = &st.rg.Hi
	}
	// The pattern is looked up once per run. A value the dictionary has
	// never interned is stored nowhere, so the answer is empty.
	f := st.cur
	f.node = append(f.node[:0], in.Root())
	f.blk.N = 1
	for r := 0; r < p.nIn; r++ {
		c, ok := st.vw.Find(s.ValueAt(r))
		if !ok {
			f.blk.N = 0
		}
		f.blk.Cols[r] = append(f.blk.Cols[r][:0], c)
	}
	for _, stage := range p.stages {
		if st.cur.blk.N == 0 {
			break // empty frontier: every later stage preserves emptiness
		}
		if !stage(st) {
			p.putBatchState(st)
			return nil, false
		}
	}
	st.res.st = st
	return &st.res, true
}

// A BatchResult is the final frontier of a successful Run: every row is one
// result (duplicates included), with the output columns still encoded. It
// borrows the pooled execution state, so it must be Released exactly once,
// after which it must not be used.
type BatchResult struct {
	st *batchState
}

// EachTuple calls f with the projection of each result row, duplicates
// included, stopping early when f returns false; it reports whether the
// sweep ran to completion. Rows are in the same order the closure tier
// would emit them. Like StreamView, f receives a view backed by a scratch
// buffer that the next row overwrites — project or copy it to retain it.
func (r *BatchResult) EachTuple(f func(relation.Tuple) bool) bool {
	st := r.st
	p := st.p
	cols := st.cur.blk.Cols
	n := st.cur.blk.N
	for i := 0; i < n; i++ {
		for j, reg := range p.out {
			st.viewVals[j] = st.vw.Decode(cols[reg][i])
		}
		if !f(st.view) {
			return false
		}
	}
	return true
}

// rowSlab is how many values a boxer allocates at a time: 512 bytes, the
// most the allocator hands out without a header of its own, and every
// multiple of a value's 32 bytes up to there is a size class, so a slab
// rounds up to nothing. Larger would save few allocations more and let a
// row the caller retains keep more of its neighbours alive.
const rowSlab = 16

// A boxer gives code rows tuples of their own. How many rows are left to
// box is known, or bounded, before the first is boxed, so their values are
// carved from one allocation per rowSlab values rather than one per row:
// the same bytes, and no more than the rows need. It is the one
// materialization of the tier, under EachRow, Collect and Merge. Each of
// them decodes a row into the values next carves in its own loop: next
// inlines, a method that also decoded would not, and a call per row costs
// a streamed 1,000-row read a fifth more.
type boxer struct {
	names   []string
	perSlab int
	slab    []value.Value
}

func newBoxer(cols relation.Cols) boxer {
	k := cols.Len()
	return boxer{names: cols.Names(), perSlab: max(rowSlab/max(k, 1), 1) * k}
}

// next carves k values for the next row. left bounds the rows still to
// box, this one included: it sizes the last slab.
func (b *boxer) next(k, left int) []value.Value {
	if len(b.slab) < k {
		b.slab = make([]value.Value, min(left*k, b.perSlab))
	}
	vals := b.slab[:k:k]
	b.slab = b.slab[k:]
	return vals
}

// outCols gathers the result's output columns, in OutCols order and cut to
// its rows, into st.outc.
func (st *batchState) outCols() [][]colblock.Code {
	n := st.cur.blk.N
	out := st.outc[:0]
	for _, reg := range st.p.out {
		out = append(out, st.cur.blk.Cols[reg][:n])
	}
	st.outc = out
	return out
}

// EachRow is EachTuple for a callback that keeps what it is given: every
// row is a tuple of its own, not a view.
func (r *BatchResult) EachRow(f func(relation.Tuple) bool) bool {
	st := r.st
	out := st.outCols()
	n := st.cur.blk.N
	b := newBoxer(st.p.cols)
	for i := 0; i < n; i++ {
		vals := b.next(len(out), n-i)
		for j, col := range out {
			vals[j] = st.vw.Decode(col[i])
		}
		if !f(relation.SortedTuple(b.names, vals)) {
			return false
		}
	}
	return true
}

// distinctRows returns the frontier rows that survive projection dedup —
// the first row of every distinct combination of output codes, in frontier
// order. Rows are deduplicated on their code words (equal codes ⟺ equal
// values within one dictionary lineage) in an open-addressed table of
// row indices, the buildProbe discipline: row index + 1 per slot, 0 empty,
// load factor ≤ ½. Every stage has run by now, so the table is the lookup
// stages' own ptab, reset here; nothing is allocated once the pooled state
// has seen a result this large.
func (st *batchState) distinctRows() []int32 {
	n := st.cur.blk.N
	out := st.outCols()
	tab := st.resetTab(n)
	if cap(st.rows) < n {
		st.rows = make([]int32, 0, colblock.CeilRows(n))
	}
	rows := st.rows[:0]
	mask := uint64(len(tab) - 1)
	for i := 0; i < n; i++ {
		h := colblock.HashInit
		for _, col := range out {
			h = colblock.HashAdd(h, col[i])
		}
	probe:
		for idx := colblock.HashEnd(h) & mask; ; idx = (idx + 1) & mask {
			t := tab[idx]
			if t == 0 {
				tab[idx] = int32(i + 1)
				rows = append(rows, int32(i))
				break
			}
			e := int(t) - 1
			for _, col := range out {
				if col[e] != col[i] {
					continue probe
				}
			}
			break // a duplicate of row e
		}
	}
	st.rows = rows
	return rows
}

// sortedRows reduces the result to its answer set, still as code words:
// the rows distinctRows keeps, sorted by comparing their output codes
// column by column (View.Compare — an integer compare unless a string or a
// 64-bit integer is involved) into canonical order (relation.SortTuples').
// A duplicate costs a hash and a word compare, and nothing is boxed. The
// first call does the work; later ones return the same rows.
func (st *batchState) sortedRows() []int32 {
	if st.sorted {
		return st.rows
	}
	rows := st.distinctRows()
	out, vw := st.outc, st.vw
	slices.SortFunc(rows, func(a, b int32) int {
		for _, col := range out {
			if ca, cb := col[a], col[b]; ca != cb {
				return vw.Compare(ca, cb)
			}
		}
		return 0
	})
	st.sorted = true
	return rows
}

// SortDistinct reduces the result to its de-duplicated rows in canonical
// order, without boxing any, and returns how many there are. A fan-out
// calls it on each cell's result where the cell ran, then hands the held
// results to Merge.
func (r *BatchResult) SortDistinct() int { return len(r.st.sortedRows()) }

// Collect gathers the projected results de-duplicated and in canonical
// order: the sorted survivors (sortedRows), each boxed once, straight into
// the result.
func (r *BatchResult) Collect() []relation.Tuple {
	st := r.st
	rows := st.sortedRows()
	res := make([]relation.Tuple, len(rows))
	b := newBoxer(st.p.cols)
	for i, row := range rows {
		vals := b.next(len(st.outc), len(rows)-i)
		for j, col := range st.outc {
			vals[j] = st.vw.Decode(col[row])
		}
		res[i] = relation.SortedTuple(b.names, vals)
	}
	return res
}

// A Part is one cell's share of a fanned-out set-valued query: the same
// plan's answer over one decomposition instance, de-duplicated and in
// canonical order. Either it is a held batch result (Res), whose rows are
// still code words of its own instance's dictionary, or it is rows a tier
// without code rows has already collected (Rows).
type Part struct {
	Res  *BatchResult
	Rows []relation.Tuple
}

// Len returns the part's row count: a held result's distinct rows.
func (p Part) Len() int {
	if p.Res != nil {
		return len(p.Res.st.sortedRows())
	}
	return len(p.Rows)
}

// Release releases a held result; boxed rows hold nothing.
func (p Part) Release() {
	if p.Res != nil {
		p.Res.Release()
	}
}

// A mergeHead is one non-empty part's cursor in Merge: row rows[i] of a
// held result's output columns out, decoded through vw, or boxed row
// tups[i].
type mergeHead struct {
	held bool
	vw   colblock.View
	out  [][]colblock.Code
	rows []int32
	tups []relation.Tuple
	i, n int
}

// compare orders the current rows of two heads on their k columns. Codes
// of two held results compare across their dictionaries (CompareAcross); a
// code against a boxed value decodes through its own view.
func (a *mergeHead) compare(b *mergeHead, k int) int {
	for j := 0; j < k; j++ {
		var c int
		switch {
		case a.held && b.held:
			c = colblock.CompareAcross(a.vw, a.out[j][a.rows[a.i]], b.vw, b.out[j][b.rows[b.i]])
		case a.held:
			c = a.vw.CompareValue(a.out[j][a.rows[a.i]], b.tups[b.i].ValueAt(j))
		case b.held:
			c = -b.vw.CompareValue(b.out[j][b.rows[b.i]], a.tups[a.i].ValueAt(j))
		default:
			c = value.Compare(a.tups[a.i].ValueAt(j), b.tups[b.i].ValueAt(j))
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// equals reports whether the head's current row is t.
func (h *mergeHead) equals(t relation.Tuple, k int) bool {
	for j := 0; j < k; j++ {
		if h.held {
			if h.vw.CompareValue(h.out[j][h.rows[h.i]], t.ValueAt(j)) != 0 {
				return false
			}
		} else if h.tups[h.i].ValueAt(j) != t.ValueAt(j) {
			return false
		}
	}
	return true
}

// Merge merges the parts of one fanned-out query — the same plan run over
// several cells, each part sorted and de-duplicated — into the query's
// answer, sorted and de-duplicated, every row a tuple of its own. It
// releases every held result; the parts must not be used after.
//
// The same full tuple lives in one cell only, but projections of different
// tuples can collide across cells, so rows equal across parts collapse to
// one. The output is ascending, so a duplicate — wherever it sat in its
// part — is exactly a row equal to the one emitted last. A held result's
// rows stay code words until they win the merge, and are then boxed once,
// straight into the result; a duplicate is never boxed. The part count is a
// cell count, so a linear scan for the minimum head beats a heap.
func Merge(parts []Part) []relation.Tuple {
	defer func() {
		for _, p := range parts {
			p.Release()
		}
	}()
	var buf [16]mergeHead
	heads := buf[:0]
	var b boxer
	k, total, left := 0, 0, 0
	for _, p := range parts {
		h := mergeHead{tups: p.Rows, n: len(p.Rows)}
		if p.Res != nil {
			st := p.Res.st
			h.held, h.vw, h.rows = true, st.vw, st.sortedRows()
			h.out, h.n = st.outc, len(h.rows)
			b, k = newBoxer(st.p.cols), len(st.p.out)
			left += h.n
		} else if h.n > 0 {
			k = p.Rows[0].Len()
		}
		if h.n > 0 {
			heads = append(heads, h)
			total += h.n
		}
	}
	if len(heads) == 1 && !heads[0].held {
		return heads[0].tups
	}
	res := make([]relation.Tuple, 0, total)
	last := -1 // the head res's last row came from, while it has not moved
	for len(heads) > 0 {
		m := 0
		for i := 1; i < len(heads); i++ {
			if heads[i].compare(&heads[m], k) < 0 {
				m = i
			}
		}
		h := &heads[m]
		if n := len(res); n == 0 || m == last || !h.equals(res[n-1], k) {
			if h.held {
				vals, row := b.next(k, left), h.rows[h.i]
				for j, col := range h.out {
					vals[j] = h.vw.Decode(col[row])
				}
				res = append(res, relation.SortedTuple(b.names, vals))
			} else {
				res = append(res, h.tups[h.i])
			}
			last = m
		}
		if h.held {
			left--
		}
		if h.i++; h.i == h.n {
			heads[m] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
			last = -1
		}
	}
	return res
}

// Release returns the result's execution state to the program's pool. It is
// idempotent; using the result after Release panics.
func (r *BatchResult) Release() {
	st := r.st
	if st == nil {
		return
	}
	r.st = nil
	st.p.putBatchState(st)
}
