package core_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/fd"
	"repro/internal/paperex"
	"repro/internal/race"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/value"
	"repro/internal/wal"
)

func schedSpec() *core.Spec {
	return &core.Spec{
		Name: "processes",
		Columns: []core.ColDef{
			{Name: "ns", Type: core.IntCol},
			{Name: "pid", Type: core.IntCol},
			{Name: "state", Type: core.IntCol},
			{Name: "cpu", Type: core.IntCol},
		},
		FDs: paperex.SchedulerFDs(),
	}
}

func newSched(t *testing.T) *core.Relation {
	t.Helper()
	r, err := core.New(schedSpec(), paperex.SchedulerDecomp())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSpecValidate(t *testing.T) {
	good := schedSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := schedSpec()
	bad.Columns = append(bad.Columns, core.ColDef{Name: "ns", Type: core.IntCol})
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate column: %v", err)
	}
	empty := &core.Spec{Name: "x"}
	if err := empty.Validate(); err == nil {
		t.Errorf("empty spec accepted")
	}
	noname := schedSpec()
	noname.Name = ""
	if err := noname.Validate(); err == nil {
		t.Errorf("nameless spec accepted")
	}
	badFD := schedSpec()
	badFD.FDs = badFD.FDs.Add(struct {
		From relation.Cols
		To   relation.Cols
	}{relation.NewCols("zzz"), relation.NewCols("cpu")})
	if err := badFD.Validate(); err == nil {
		t.Errorf("FD over undeclared column accepted")
	}
}

func TestNewRejectsVectorOverString(t *testing.T) {
	spec := schedSpec()
	spec.Columns[2].Type = core.StringCol // state becomes a string
	if _, err := core.New(spec, paperex.SchedulerDecomp()); err == nil {
		t.Errorf("vector over string column accepted")
	} else if !strings.Contains(err.Error(), "vector") {
		t.Errorf("unexpected error %v", err)
	}
}

func TestNewRejectsInadequate(t *testing.T) {
	// A decomposition missing the cpu column.
	d := decomp.MustNew([]decomp.Binding{
		decomp.Let("w", []string{"ns", "pid"}, []string{"state"}, decomp.U("state")),
		decomp.Let("x", nil, []string{"ns", "pid", "state"},
			decomp.M(dstruct.HTableKind, "w", "ns", "pid")),
	}, "x")
	if _, err := core.New(schedSpec(), d); err == nil {
		t.Errorf("inadequate decomposition accepted")
	}
}

func TestNewRejectsOverWideUnit(t *testing.T) {
	// A leaf holding 256 columns: one more than a node header counts.
	spec := &core.Spec{Name: "wide", Columns: []core.ColDef{{Name: "k", Type: core.IntCol}}}
	var cols []string
	for i := 0; i < 256; i++ {
		cols = append(cols, fmt.Sprintf("c%03d", i))
		spec.Columns = append(spec.Columns, core.ColDef{Name: cols[i], Type: core.IntCol})
	}
	spec.FDs = fd.NewSet(fd.FD{From: relation.NewCols("k"), To: relation.NewCols(cols...)})
	d := decomp.MustNew([]decomp.Binding{
		decomp.Let("w", []string{"k"}, cols, decomp.U(cols...)),
		decomp.Let("x", nil, append([]string{"k"}, cols...), decomp.M(dstruct.HTableKind, "w", "k")),
	}, "x")
	if _, err := core.New(spec, d); err == nil || !strings.Contains(err.Error(), "256 unit columns") {
		t.Errorf("256-column unit: %v", err)
	}
}

func TestSchedulerWorkflow(t *testing.T) {
	// The full §2 example: insert, query, update, remove.
	r := newSched(t)
	if err := r.Insert(paperex.SchedulerTuple(7, 42, paperex.StateR, 0)); err != nil {
		t.Fatal(err)
	}
	got, err := r.Query(relation.NewTuple(relation.BindInt("state", paperex.StateR)), []string{"ns", "pid"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].MustGet("ns").Int() != 7 || got[0].MustGet("pid").Int() != 42 {
		t.Fatalf("running processes = %v", got)
	}

	pat := relation.NewTuple(relation.BindInt("ns", 7), relation.BindInt("pid", 42))
	got, err = r.Query(pat, []string{"state", "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].MustGet("state").Int() != paperex.StateR {
		t.Fatalf("state query = %v", got)
	}

	// Mark process 42 sleeping (the paper's update).
	n, err := r.Update(pat, relation.NewTuple(relation.BindInt("state", paperex.StateS)))
	if err != nil || n != 1 {
		t.Fatalf("Update = %d, %v", n, err)
	}
	got, _ = r.Query(pat, []string{"state"})
	if len(got) != 1 || got[0].MustGet("state").Int() != paperex.StateS {
		t.Fatalf("after update: %v", got)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Remove the process.
	n, err = r.Remove(pat)
	if err != nil || n != 1 {
		t.Fatalf("Remove = %d, %v", n, err)
	}
	if r.Len() != 0 {
		t.Fatalf("Len after remove = %d", r.Len())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertTypeChecking(t *testing.T) {
	r := newSched(t)
	// Wrong type.
	bad := relation.NewTuple(
		relation.BindString("ns", "seven"), relation.BindInt("pid", 1),
		relation.BindInt("state", 0), relation.BindInt("cpu", 0))
	if err := r.Insert(bad); err == nil {
		t.Errorf("wrongly-typed insert accepted")
	}
	// Missing column.
	if err := r.Insert(relation.NewTuple(relation.BindInt("ns", 1))); err == nil {
		t.Errorf("partial insert accepted")
	}
	// Unknown column in query pattern.
	if _, err := r.Query(relation.NewTuple(relation.BindInt("bogus", 1)), []string{"ns"}); err == nil {
		t.Errorf("query with unknown column accepted")
	}
	if _, err := r.Query(relation.NewTuple(), []string{"bogus"}); err == nil {
		t.Errorf("query for unknown output accepted")
	}
}

// TestInsertRejectsFDViolation: on the paper's Figure 2 scheduler, a second
// state for one (ns, pid) with the same cpu trips no unit or edge conflict;
// its insert walk would link the existing shared node w from a fresh state
// node. A Relation rejects it as it is, with no option set, and stays
// consistent.
func TestInsertRejectsFDViolation(t *testing.T) {
	r := newSched(t)
	if err := r.Insert(paperex.SchedulerTuple(1, 2, 0, 7)); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(paperex.SchedulerTuple(1, 2, 1, 7)); err == nil {
		t.Errorf("FD-violating insert accepted")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(paperex.SchedulerTuple(1, 2, 0, 7)); err != nil {
		t.Errorf("idempotent insert rejected: %v", err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestRemovePattern(t *testing.T) {
	r := newSched(t)
	for _, tup := range paperex.SchedulerRelation().All() {
		if err := r.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	// Remove all sleeping processes (two of the three).
	n, err := r.Remove(relation.NewTuple(relation.BindInt("state", paperex.StateS)))
	if err != nil || n != 2 {
		t.Fatalf("Remove sleeping = %d, %v", n, err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Remove with empty pattern clears the relation.
	n, err = r.Remove(relation.NewTuple())
	if err != nil || n != 1 {
		t.Fatalf("Remove all = %d, %v", n, err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRestrictions(t *testing.T) {
	r := newSched(t)
	_ = r.Insert(paperex.SchedulerTuple(1, 1, paperex.StateS, 7))
	// Non-key pattern.
	if _, err := r.Update(relation.NewTuple(relation.BindInt("ns", 1)),
		relation.NewTuple(relation.BindInt("cpu", 0))); err == nil {
		t.Errorf("non-key update accepted")
	}
	// Overlapping update values.
	pat := relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 1))
	if _, err := r.Update(pat, relation.NewTuple(relation.BindInt("pid", 2))); err == nil {
		t.Errorf("key-modifying update accepted")
	}
	// Update of an absent key is a no-op.
	absent := relation.NewTuple(relation.BindInt("ns", 9), relation.BindInt("pid", 9))
	if n, err := r.Update(absent, relation.NewTuple(relation.BindInt("cpu", 1))); err != nil || n != 0 {
		t.Errorf("absent update = %d, %v", n, err)
	}
}

func TestUpdateInPlaceVsReinsert(t *testing.T) {
	r := newSched(t)
	_ = r.Insert(paperex.SchedulerTuple(1, 1, paperex.StateS, 7))
	pat := relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 1))
	// cpu-only update hits the in-place path; state update must re-home the
	// node across the vector edge. Both must preserve invariants.
	if _, err := r.Update(pat, relation.NewTuple(relation.BindInt("cpu", 50))); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Update(pat, relation.NewTuple(relation.BindInt("state", paperex.StateR))); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Query(pat, []string{"state", "cpu"})
	if len(got) != 1 || got[0].MustGet("state").Int() != paperex.StateR || got[0].MustGet("cpu").Int() != 50 {
		t.Fatalf("after updates: %v", got)
	}
}

func TestQueryFuncStreamsAndStops(t *testing.T) {
	r := newSched(t)
	for _, tup := range paperex.SchedulerRelation().All() {
		_ = r.Insert(tup)
	}
	count := 0
	err := r.QueryFunc(relation.NewTuple(), []string{"ns", "pid"}, func(relation.Tuple) bool {
		count++
		return count < 2
	})
	if err != nil || count != 2 {
		t.Errorf("QueryFunc early stop: count=%d err=%v", count, err)
	}
}

// TestQueryFuncRowsAreViews: the rows QueryFunc hands out are views, valid
// until the callback returns. Copied with Project they are the caller's:
// kept across the rest of the sweep, across a second query that reuses the
// executor's pooled state, and across mutations, they still equal what
// Query returned at the time. A streamed row itself costs nothing: on every
// tier a 300-row stream allocates exactly what a 30-row stream does.
func TestQueryFuncRowsAreViews(t *testing.T) {
	r := newSched(t)
	const nss, pids = 4, 150
	for ns := int64(0); ns < nss; ns++ {
		for pid := int64(0); pid < pids; pid++ {
			if err := r.Insert(paperex.SchedulerTuple(ns, pid, pid%2, pid)); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := []string{"ns", "pid", "cpu"}
	keep := func(state int64) (kept, want []relation.Tuple) {
		pat := relation.NewTuple(relation.BindInt("state", state))
		want, err := r.Query(pat, out)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.QueryFunc(pat, out, func(tu relation.Tuple) bool {
			kept = append(kept, tu.Project(tu.Dom()))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return kept, want
	}
	kept0, want0 := keep(paperex.StateS)
	kept1, want1 := keep(paperex.StateR)
	for pid := int64(0); pid < pids; pid++ {
		if _, err := r.Update(relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", pid)),
			relation.NewTuple(relation.BindInt("cpu", 9000+pid))); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range []struct{ kept, want []relation.Tuple }{{kept0, want0}, {kept1, want1}} {
		relation.SortTuples(c.kept)
		if len(c.kept) != nss*pids/2 || len(c.want) != len(c.kept) {
			t.Fatalf("state %d: kept %d rows, Query returned %d, want %d", i, len(c.kept), len(c.want), nss*pids/2)
		}
		for j := range c.kept {
			if !c.kept[j].Equal(c.want[j]) {
				t.Fatalf("state %d row %d: kept %v, Query returned %v", i, j, c.kept[j], c.want[j])
			}
		}
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if race.Enabled {
		t.Skip("sync.Pool randomly drops items under the race detector")
	}
	for name, e := range streamTiers(t, 300, 30) {
		counts := map[int64]float64{}
		for _, c := range []struct {
			state int64
			rows  int
		}{{paperex.StateS, 300}, {paperex.StateR, 30}} {
			pat := relation.NewTuple(relation.BindInt("state", c.state))
			n := 0
			run := func() {
				n = 0
				if err := e.QueryFunc(pat, out, func(relation.Tuple) bool { n++; return true }); err != nil {
					t.Fatal(err)
				}
			}
			// A collection during the count would drop the pooled batch
			// state and charge its rebuild to the stream: collect first,
			// then warm the plan cache and the pool.
			runtime.GC()
			run()
			counts[c.state] = testing.AllocsPerRun(100, run)
			if n != c.rows {
				t.Fatalf("%s: streamed %d rows, want %d", name, n, c.rows)
			}
		}
		t.Logf("%s: %.0f objects per 300-row stream, %.0f per 30-row stream", name, counts[paperex.StateS], counts[paperex.StateR])
		if counts[paperex.StateS] != counts[paperex.StateR] {
			t.Errorf("%s: a 300-row stream allocates %.1f objects, a 30-row stream %.1f: a streamed row allocates",
				name, counts[paperex.StateS], counts[paperex.StateR])
		}
	}
}

// A streamer is the one read every tier and the follower share.
type streamer interface {
	QueryFunc(pat relation.Tuple, out []string, f func(relation.Tuple) bool) error
}

// streamTiers returns the scheduler relation holding s sleeping and r
// running processes on each tier a stream can run through: bare, sync, a
// sharded engine whose state-bound streams visit both cells, durable, and a
// follower caught up with a durable primary.
func streamTiers(t *testing.T, s, r int) map[string]streamer {
	t.Helper()
	sr, err := core.NewSharded(schedSpec(), paperex.SchedulerDecomp(), core.ShardOptions{
		ShardKey: []string{"ns", "pid"},
		Shards:   2,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	bare, synced := newSched(t), core.NewSync(newSched(t))
	durable, primary := newDurableSync(t, t.TempDir(), wal.SyncOff), newDurableSync(t, t.TempDir(), wal.SyncOff)
	for pid := int64(0); pid < int64(s+r); pid++ {
		state := paperex.StateS
		if pid >= int64(s) {
			state = paperex.StateR
		}
		tu := paperex.SchedulerTuple(pid%4, pid, state, pid)
		for _, e := range []interface{ Insert(relation.Tuple) error }{bare, synced, sr, durable, primary} {
			if err := e.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	pub, err := repl.NewPublisher(primary, repl.PublisherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })
	f, err := repl.NewFollower(schedSpec(), repl.InProcDialer(pub), repl.FollowerOptions{Decomp: paperex.SchedulerDecomp()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := f.WaitFor(pub.Head(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return map[string]streamer{"bare": bare, "sync": synced, "fan-out": sr, "durable": durable, "follower": f}
}

// TestCollectedRowsAreTheCallersToKeep: the rows the set-valued reads
// return are the caller's, carved from slabs of their own. What Query and
// QueryRange return, and QueryRangeFunc's views copied with Project,
// survive the pooled execution state's release and reuse — a second run of
// each program, then 150 updates — and a collected row costs a share of a
// slab, not a tuple, a key and a map entry each.
func TestCollectedRowsAreTheCallersToKeep(t *testing.T) {
	r := newSched(t)
	const nss, pids = 4, 150
	for ns := int64(0); ns < nss; ns++ {
		for pid := int64(0); pid < pids; pid++ {
			if err := r.Insert(paperex.SchedulerTuple(ns, pid, pid%2, pid)); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := []string{"ns", "pid", "cpu"}
	lo, hi := value.OfInt(10), value.OfInt(99)
	read := func(state int64) (res [3][]relation.Tuple) {
		pat := relation.NewTuple(relation.BindInt("state", state))
		var err error
		if res[0], err = r.Query(pat, out); err != nil {
			t.Fatal(err)
		}
		if res[1], err = r.QueryRange(pat, "pid", &lo, &hi, out); err != nil {
			t.Fatal(err)
		}
		if err = r.QueryRangeFunc(pat, "pid", &lo, &hi, out, func(tu relation.Tuple) bool {
			res[2] = append(res[2], tu.Project(tu.Dom()))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		relation.SortTuples(res[2])
		return res
	}
	render := func(res [3][]relation.Tuple) (s [3]string) {
		for i, ts := range res {
			for _, tu := range ts {
				s[i] += tu.String()
			}
		}
		return s
	}
	kept := read(paperex.StateS)
	if len(kept[0]) != nss*pids/2 || len(kept[1]) != nss*45 || len(kept[2]) != nss*45 {
		t.Fatalf("read %d, %d and %d rows, want %d, %d and %d", len(kept[0]), len(kept[1]), len(kept[2]), nss*pids/2, nss*45, nss*45)
	}
	then := render(kept)
	_ = read(paperex.StateR) // the same three programs, on the states the first run pooled
	for pid := int64(0); pid < pids; pid++ {
		if _, err := r.Update(relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", pid)),
			relation.NewTuple(relation.BindInt("cpu", 9000+pid))); err != nil {
			t.Fatal(err)
		}
	}
	if now := render(kept); now != then {
		t.Fatalf("kept rows changed under a later run and updates:\n then %v\n now  %v", then, now)
	}
	pat := relation.NewTuple(relation.BindInt("state", paperex.StateS))
	var last []relation.Tuple
	allocs := testing.AllocsPerRun(20, func() { last, _ = r.Query(pat, out) })
	// Sixty slabs of five three-column rows and the result, plus the
	// executor's pooled state whenever the race detector makes sync.Pool
	// drop it.
	if rows := float64(nss * pids / 2); allocs > rows/2 {
		t.Errorf("collecting %v rows allocates %v objects, want under one per two rows (%d returned)", rows, allocs, len(last))
	}
}

func TestAllAndPlanDescription(t *testing.T) {
	r := newSched(t)
	for _, tup := range paperex.SchedulerRelation().All() {
		_ = r.Insert(tup)
	}
	all, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("All returned %d tuples", len(all))
	}
	desc, err := r.PlanDescription([]string{"ns", "pid"}, []string{"cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "qlookup") {
		t.Errorf("point query plan has no lookup: %s", desc)
	}
}

func TestReprofileKeepsAnswersStable(t *testing.T) {
	r := newSched(t)
	for i := int64(0); i < 20; i++ {
		_ = r.Insert(paperex.SchedulerTuple(1, i, paperex.StateR, i))
	}
	before, _ := r.Query(relation.NewTuple(relation.BindInt("state", paperex.StateR)), []string{"pid"})
	r.Reprofile()
	after, _ := r.Query(relation.NewTuple(relation.BindInt("state", paperex.StateR)), []string{"pid"})
	if len(before) != len(after) {
		t.Fatalf("reprofile changed results: %d vs %d", len(before), len(after))
	}
}

// TestTheorem5EndToEnd drives a long random operation sequence through the
// public API and the oracle simultaneously (Theorem 5: sequences of
// operations on decompositions are sound w.r.t. their logical counterparts).
func TestTheorem5EndToEnd(t *testing.T) {
	decomps := map[string]func() *decomp.Decomp{
		"figure2": paperex.SchedulerDecomp,
		"flat": func() *decomp.Decomp {
			return decomp.MustNew([]decomp.Binding{
				decomp.Let("w", []string{"ns", "pid"}, []string{"state", "cpu"}, decomp.U("state", "cpu")),
				decomp.Let("x", nil, []string{"ns", "pid", "state", "cpu"},
					decomp.M(dstruct.AVLKind, "w", "ns", "pid")),
			}, "x")
		},
	}
	for name, mk := range decomps {
		t.Run(name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(77))
			r, err := core.New(schedSpec(), mk())
			if err != nil {
				t.Fatal(err)
			}
			oracle := relation.Empty(paperex.SchedulerCols())
			gen := func() relation.Tuple {
				return paperex.SchedulerTuple(int64(rnd.Intn(2)), int64(rnd.Intn(5)),
					[]int64{paperex.StateR, paperex.StateS}[rnd.Intn(2)], int64(rnd.Intn(4)))
			}
			for step := 0; step < 600; step++ {
				switch rnd.Intn(10) {
				case 0, 1, 2, 3, 4: // insert
					tup := gen()
					if !r.Spec().FDs.HoldsOnInsert(oracle, tup) {
						continue
					}
					_ = oracle.Insert(tup)
					if err := r.Insert(tup); err != nil {
						t.Fatalf("step %d insert: %v", step, err)
					}
				case 5, 6: // remove by partial pattern
					tup := gen()
					cols := []relation.Cols{
						relation.NewCols("ns", "pid"),
						relation.NewCols("state"),
						relation.NewCols("cpu"),
					}[rnd.Intn(3)]
					pat := tup.Project(cols)
					n, err := r.Remove(pat)
					if err != nil {
						t.Fatalf("step %d remove: %v", step, err)
					}
					if want := oracle.Remove(pat); n != want {
						t.Fatalf("step %d remove %v: got %d, want %d", step, pat, n, want)
					}
				case 7: // keyed update
					tup := gen()
					pat := tup.Project(relation.NewCols("ns", "pid"))
					u := tup.Project(relation.NewCols("state", "cpu"))
					if _, err := r.Update(pat, u); err != nil {
						t.Fatalf("step %d update: %v", step, err)
					}
					oracle.Update(pat, u)
				default: // query
					tup := gen()
					pat := tup.Project([]relation.Cols{
						relation.NewCols(), relation.NewCols("ns"),
						relation.NewCols("state"), relation.NewCols("ns", "pid"),
					}[rnd.Intn(4)])
					out := []string{"ns", "pid", "cpu"}
					got, err := r.Query(pat, out)
					if err != nil {
						t.Fatalf("step %d query: %v", step, err)
					}
					want := oracle.Query(pat, relation.NewCols(out...))
					if len(got) != len(want) {
						t.Fatalf("step %d query %v: %v vs %v", step, pat, got, want)
					}
					for i := range got {
						if !got[i].Equal(want[i]) {
							t.Fatalf("step %d query %v: %v vs %v", step, pat, got, want)
						}
					}
				}
				if step%97 == 0 {
					if err := r.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if r.Len() != oracle.Len() {
				t.Fatalf("final Len %d vs oracle %d", r.Len(), oracle.Len())
			}
		})
	}
}
