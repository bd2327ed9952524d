package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/autotuner"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dsl"
	"repro/internal/durable"
	"repro/internal/fd"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/wal"
)

// fdCase is one decomposition of the FD differential, with the shard key
// its sharded tier uses.
type fdCase struct {
	name  string
	spec  *core.Spec
	d     *decomp.Decomp
	shard []string
}

// fdCases is the differential's corpus: every decomposition of spec/*.rel,
// Figure 12's graph decompositions 1, 5 and 9, the paper's scheduler, the
// two-key relation, and two enumerated graph shapes with an FD the insert
// walk cannot see. Each sharded tier shards on a column inside every FD's
// left side, except the two-key relation's, whose key {k1} leaves k2 → k1, v
// to the cross-shard check.
func fdCases(t *testing.T) []fdCase {
	t.Helper()
	var cases []fdCase
	for _, c := range []struct{ file, rel, shard string }{
		{"flows.rel", "flows", "local"},
		{"graphedges.rel", "graphedges", "src"},
		{"scheduler.rel", "processes", "ns"},
		{"tiles.rel", "tiles", "tile"},
		{"mappings.rel", "mappings", "path"},
	} {
		src, err := os.ReadFile("../../spec/" + c.file)
		if err != nil {
			t.Fatal(err)
		}
		f, err := dsl.ParseFile("spec/"+c.file, string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range f.Decomps {
			cases = append(cases, fdCase{c.file + "/" + nd.Name, f.Relation(c.rel), nd.D, []string{c.shard}})
		}
	}
	graph := &core.Spec{Name: "edges", Columns: []core.ColDef{
		{Name: "src", Type: core.IntCol}, {Name: "dst", Type: core.IntCol}, {Name: "weight", Type: core.IntCol},
	}, FDs: paperex.GraphFDs()}
	for name, d := range map[string]*decomp.Decomp{
		"graph decomp 1": paperex.GraphDecomp1(),
		"graph decomp 5": paperex.GraphDecomp5(),
		"graph decomp 9": paperex.GraphDecomp9(),
	} {
		cases = append(cases, fdCase{name, graph, d, []string{"src"}})
	}
	cases = append(cases, fdCase{"scheduler", schedSpec(), paperex.SchedulerDecomp(), []string{"ns"}})
	spec, d := twoKeySpec()
	cases = append(cases, fdCase{"two keys", spec, d, []string{"k1"}})
	unseen := 0
	for _, d := range autotuner.EnumerateShapes(graph, autotuner.EnumOptions{MaxEdges: 3, KeyArity: 1}) {
		if len(core.UnseenFDs(d, graph.FDs)) == 0 {
			continue
		}
		unseen++
		t.Logf("enumerated graph shape %d: %s", unseen, d.CanonicalShape())
		cases = append(cases, fdCase{fmt.Sprintf("enumerated graph shape %d", unseen), graph, d, []string{"src"}})
		if unseen == 2 {
			break
		}
	}
	if unseen < 2 {
		t.Fatalf("found %d enumerated shapes with an FD the walk cannot see, want 2", unseen)
	}
	return cases
}

// fdTier is what the differential drives: a bare Relation or an engine.
type fdTier interface {
	Insert(relation.Tuple) error
	Update(s, u relation.Tuple) (int, error)
	Remove(relation.Tuple) (int, error)
	All() ([]relation.Tuple, error)
	CheckInvariants() error
}

// fdOp is one write of a history.
type fdOp struct {
	kind string // "insert", "update" or "remove"
	t    relation.Tuple
	s, u relation.Tuple
}

// fdHistory draws a seeded history of inserts, updates and removes over
// small value domains, so tuples collide often: about a third of the
// inserts and updates violate an FD against the tuples the history has
// stored by then. An update binds a key (the left side of an FD that is
// one) and sets other columns, never the shard key.
func fdHistory(c fdCase, seed int64, n int) []fdOp {
	rnd := rand.New(rand.NewSource(seed))
	cols := c.spec.Cols()
	val := func(col string) value.Value {
		if typ, _ := c.spec.Type(col); typ == core.StringCol {
			return value.OfString(fmt.Sprintf("s%d", rnd.Intn(4)))
		}
		return value.OfInt(int64(rnd.Intn(4)))
	}
	tuple := func(names []string) relation.Tuple {
		bs := make([]relation.Binding, len(names))
		for i, col := range names {
			bs[i] = relation.Bind(col, val(col))
		}
		return relation.NewTuple(bs...)
	}
	var keys []relation.Cols
	for _, f := range c.spec.FDs.All() {
		if c.spec.FDs.IsKey(f.From, cols) {
			keys = append(keys, f.From)
		}
	}
	oracle := relation.Empty(cols)
	var ops []fdOp
	for len(ops) < n {
		violate := rnd.Intn(3) == 0
		var op fdOp
		switch r := rnd.Intn(10); {
		case r < 5:
			for try := 0; try < 50; try++ {
				op = fdOp{kind: "insert", t: tuple(cols.Names())}
				if fdAccepts(c.spec.FDs, oracle, op) != violate {
					break
				}
			}
		case r < 8:
			key := keys[rnd.Intn(len(keys))]
			free := cols.Minus(key).Minus(relation.NewCols(c.shard...)).Names()
			if len(free) == 0 {
				continue
			}
			for try := 0; try < 50; try++ {
				var set []string
				for _, col := range free {
					if rnd.Intn(2) == 0 {
						set = append(set, col)
					}
				}
				if len(set) == 0 {
					set = free[:1]
				}
				op = fdOp{kind: "update", s: tuple(key.Names()), u: tuple(set)}
				if fdAccepts(c.spec.FDs, oracle, op) != violate {
					break
				}
			}
		default:
			op = fdOp{kind: "remove", s: tuple(keys[rnd.Intn(len(keys))].Names())}
		}
		if fdAccepts(c.spec.FDs, oracle, op) {
			fdApply(oracle, op)
		}
		ops = append(ops, op)
	}
	return ops
}

// fdAccepts is the oracle's verdict on op: an insert is accepted iff the
// relation with t still satisfies the FDs, an update iff the relation with
// its match replaced by the merged tuple does (no match: a no-op), a
// remove always.
func fdAccepts(fds fd.Set, r *relation.Relation, op fdOp) bool {
	switch op.kind {
	case "insert":
		return fds.HoldsOnInsert(r, op.t)
	case "update":
		match := r.Query(op.s, r.Cols())
		if len(match) == 0 {
			return true
		}
		rest := r.Clone()
		rest.Remove(match[0])
		return fds.HoldsOnInsert(rest, match[0].Merge(op.u))
	}
	return true
}

// fdApply applies an accepted op to the oracle.
func fdApply(r *relation.Relation, op fdOp) {
	switch op.kind {
	case "insert":
		_ = r.Insert(op.t)
	case "update":
		r.Update(op.s, op.u)
	default:
		r.Remove(op.s)
	}
}

// runFDHistory runs ops on tier, failing unless each write is accepted iff
// the oracle accepts it and CheckInvariants passes after it, and returns
// the oracle's final state.
func runFDHistory(t *testing.T, c fdCase, tier fdTier, ops []fdOp) *relation.Relation {
	t.Helper()
	oracle := relation.Empty(c.spec.Cols())
	for i, op := range ops {
		want := fdAccepts(c.spec.FDs, oracle, op)
		var err error
		switch op.kind {
		case "insert":
			err = tier.Insert(op.t)
		case "update":
			_, err = tier.Update(op.s, op.u)
		default:
			_, err = tier.Remove(op.s)
		}
		if (err == nil) != want {
			t.Fatalf("op %d, %s %v %v %v: accepted %v, the oracle says %v (%v)", i, op.kind, op.t, op.s, op.u, err == nil, want, err)
		}
		if want {
			fdApply(oracle, op)
		}
		if err := tier.CheckInvariants(); err != nil {
			t.Fatalf("op %d, %s %v %v %v: %v", i, op.kind, op.t, op.s, op.u, err)
		}
	}
	checkFDState(t, tier, oracle)
	return oracle
}

// checkFDState fails unless tier reads back exactly the oracle.
func checkFDState(t *testing.T, tier fdTier, oracle *relation.Relation) {
	t.Helper()
	got, err := tier.All()
	if err != nil {
		t.Fatal(err)
	}
	if !tupleSlicesEqual(got, oracle.All()) {
		t.Fatalf("reads %v, oracle %v", got, oracle.All())
	}
}

// TestFDsAlwaysHold drives seeded histories, a third of whose inserts and
// updates violate an FD, through the bare Relation, the single-cell engine,
// the sharded engine and a durable relation that is then reopened, on every
// decomposition of fdCases. Each write must be accepted iff the
// internal/relation oracle accepts it (fd.Set.HoldsOnInsert), and
// CheckInvariants must pass after every write.
func TestFDsAlwaysHold(t *testing.T) {
	for _, c := range fdCases(t) {
		t.Run(c.name, func(t *testing.T) {
			ops := fdHistory(c, 7, 150)
			t.Run("bare", func(t *testing.T) {
				r, err := core.New(c.spec, c.d)
				if err != nil {
					t.Fatal(err)
				}
				runFDHistory(t, c, r, ops)
			})
			t.Run("single cell", func(t *testing.T) {
				e, err := core.NewEngine(c.spec, c.d, core.ShardOptions{})
				if err != nil {
					t.Fatal(err)
				}
				runFDHistory(t, c, e, ops)
			})
			t.Run("sharded", func(t *testing.T) {
				sr, err := core.NewSharded(c.spec, c.d, core.ShardOptions{ShardKey: c.shard, Shards: 3, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				runFDHistory(t, c, sr, ops)
			})
			t.Run("durable reopen", func(t *testing.T) {
				dir := t.TempDir()
				d, err := durable.Open(dir, c.spec, c.d, durable.Options{Create: true, Policy: wal.SyncOff})
				if err != nil {
					t.Fatal(err)
				}
				oracle := runFDHistory(t, c, d, ops)
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				if d, err = durable.Open(dir, c.spec, c.d, durable.Options{}); err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				checkFDState(t, d, oracle)
				if err := d.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestBenchmarkLayoutsRunNoFDQuery pins that the benchmark's decompositions
// (flows, graphedges, processes) leave no FD for a query to check: across
// 1,000 mixed inserts, updates and removes, bare and sharded, the executors
// run exactly the plan each update and each remove locates its tuples with,
// and none for an insert.
func TestBenchmarkLayoutsRunNoFDQuery(t *testing.T) {
	for _, c := range fdCases(t) {
		if c.name != "flows.rel/flows" && c.name != "graphedges.rel/graphedges" && c.name != "scheduler.rel/processes" {
			continue
		}
		if u := core.UnseenFDs(c.d, c.spec.FDs); len(u) != 0 {
			t.Fatalf("%s: the insert walk cannot see %v", c.name, u)
		}
		ops := fdHistory(c, 11, 1000)
		reads := uint64(0)
		for _, op := range ops {
			if op.kind != "insert" {
				reads++
			}
		}
		r, err := core.New(c.spec, c.d)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := core.NewSharded(c.spec, c.d, core.ShardOptions{ShardKey: c.shard, Shards: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for name, tier := range map[string]interface {
			fdTier
			SetMetrics(*obs.Metrics)
		}{"bare": r, "sharded": sr} {
			m := &obs.Metrics{}
			tier.SetMetrics(m)
			for _, op := range ops {
				switch op.kind {
				case "insert":
					_ = tier.Insert(op.t)
				case "update":
					_, _ = tier.Update(op.s, op.u)
				default:
					_, _ = tier.Remove(op.s)
				}
			}
			if got := m.ExecVectorized.Load() + m.ExecInterpreted.Load(); got != reads {
				t.Errorf("%s %s: %d plan runs for %d updates and removes", c.name, name, got, reads)
			}
		}
	}
}
