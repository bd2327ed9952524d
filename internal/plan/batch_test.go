package plan_test

import (
	"math/rand"
	"testing"

	"repro/internal/instance"
	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/race"
	"repro/internal/relation"
)

// TestVectorizedDifferential is the batch tier's oracle test, the
// three-tier extension of TestCompiledDifferential: every Check-valid
// candidate plan for every input column subset of both corpus fixtures must
// (a) batch-compile whenever it closure-compiles, and (b) produce — for hit
// and miss patterns, full and subset outputs — exactly the closure tier's
// and the interpreter's results, through both the deduplicating Collect
// path and the raw row stream. The streamed comparison is order-sensitive:
// stage-at-a-time execution over an ordered frontier must reproduce the
// closure tier's nested-loop emission order row for row.
func TestVectorizedDifferential(t *testing.T) {
	fixtures := []struct {
		name string
		mk   func() *instance.Instance
		gen  func(r *rand.Rand) relation.Tuple
	}{
		{"scheduler", func() *instance.Instance {
			return instance.New(paperex.SchedulerDecomp(), paperex.SchedulerFDs())
		}, func(r *rand.Rand) relation.Tuple {
			return paperex.SchedulerTuple(int64(r.Intn(3)), int64(r.Intn(4)),
				[]int64{paperex.StateR, paperex.StateS}[r.Intn(2)], int64(r.Intn(6)))
		}},
		{"graph5", func() *instance.Instance {
			return instance.New(paperex.GraphDecomp5(), paperex.GraphFDs())
		}, func(r *rand.Rand) relation.Tuple {
			return paperex.EdgeTuple(int64(r.Intn(4)), int64(r.Intn(4)), int64(r.Intn(4)))
		}},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(409))
			in := fx.mk()
			oracle := relation.Empty(in.Decomp().Cols())
			for i := 0; i < 40; i++ {
				tup := fx.gen(rnd)
				if !in.FDs().HoldsOnInsert(oracle, tup) {
					continue
				}
				_ = oracle.Insert(tup)
				if _, err := in.Insert(tup); err != nil {
					t.Fatal(err)
				}
			}
			pl := plan.NewPlanner(in.Decomp(), in.FDs(), plan.MeasuredStats(in))
			names := in.Decomp().Cols().Names()
			full := oracle.All()
			vectorized := 0
			for inMask := 0; inMask < 1<<len(names); inMask++ {
				var inCols []string
				for i, n := range names {
					if inMask&(1<<i) != 0 {
						inCols = append(inCols, n)
					}
				}
				input := cols(inCols...)
				patterns := []relation.Tuple{
					full[rnd.Intn(len(full))].Project(input),
					fx.gen(rnd).Project(input),
				}
				for _, cand := range pl.All(input) {
					b, err := plan.Check(in.Decomp(), in.FDs(), cand.Op, input)
					if err != nil {
						continue // planner-internal intermediate, not executable standalone
					}
					outputs := []relation.Cols{b}
					if b.Len() > 1 {
						outputs = append(outputs, cols(b.Names()[0]))
					}
					for _, output := range outputs {
						prog, err := plan.Compile(in, cand.Op, input, output)
						if err != nil {
							t.Fatalf("input %v plan %s: compile failed: %v", input, cand.Op, err)
						}
						bp, err := plan.CompileBatch(in, cand.Op, input, output)
						if err != nil {
							t.Fatalf("input %v plan %s: closure tier compiled but batch tier failed: %v", input, cand.Op, err)
						}
						vectorized++
						for _, pat := range patterns {
							br, ok := bp.Run(in, pat)
							if !ok {
								t.Fatalf("input %v plan %s pattern %v: batch run bailed on a complete instance", input, cand.Op, pat)
							}
							got := br.Collect()
							want := prog.Collect(in, pat, 0)
							if !sameKeys(sortedKeys(got), sortedKeys(want)) {
								t.Fatalf("input %v → %v plan %s pattern %v:\nvectorized %v\nclosure    %v",
									input, output, cand.Op, pat, got, want)
							}
							interp := plan.Collect(in, cand.Op, pat, output)
							if !sameKeys(sortedKeys(got), sortedKeys(interp)) {
								t.Fatalf("input %v → %v plan %s pattern %v:\nvectorized %v\ninterp     %v",
									input, output, cand.Op, pat, got, interp)
							}
							var gotS []string
							br.EachTuple(func(tp relation.Tuple) bool {
								gotS = append(gotS, tp.Key())
								return true
							})
							if got := br.Rows(); got != len(gotS) {
								t.Fatalf("Rows() = %d but EachTuple emitted %d", got, len(gotS))
							}
							// EachRow's rows are the callback's to keep: read back
							// after the sweep and the release, each must still be
							// what EachTuple's view was while it was current.
							var rows []relation.Tuple
							br.EachRow(func(tp relation.Tuple) bool {
								rows = append(rows, tp)
								return true
							})
							br.Release()
							var keptS []string
							for _, tp := range rows {
								keptS = append(keptS, tp.Key())
							}
							if !sameKeys(keptS, gotS) {
								t.Fatalf("input %v → %v plan %s pattern %v: rows kept from EachRow differ from EachTuple's (order-sensitive):\nkept %v\nview %v",
									input, output, cand.Op, pat, keptS, gotS)
							}
							var wantS []string
							prog.Stream(in, pat, func(tp relation.Tuple) bool {
								wantS = append(wantS, tp.Key())
								return true
							})
							if !sameKeys(gotS, wantS) {
								t.Fatalf("input %v → %v plan %s pattern %v: row streams differ (order-sensitive):\nvectorized %v\nclosure    %v",
									input, output, cand.Op, pat, gotS, wantS)
							}
						}
					}
				}
			}
			if vectorized == 0 {
				t.Fatal("no plans batch-compiled")
			}
			t.Logf("%d (plan, output) pairs vectorized and verified", vectorized)
		})
	}
}

// TestVectorizedDifferentialEmpty runs every valid plan of the corpus
// decompositions against never-written instances. Neither corpus root is a
// bare unit, so batch runs must succeed (not bail) and agree with the
// interpreter on emptiness.
func TestVectorizedDifferentialEmpty(t *testing.T) {
	for _, mk := range []func() *instance.Instance{
		func() *instance.Instance {
			return instance.New(paperex.SchedulerDecomp(), paperex.SchedulerFDs())
		},
		func() *instance.Instance {
			return instance.New(paperex.GraphDecomp5(), paperex.GraphFDs())
		},
	} {
		in := mk()
		pl := plan.NewPlanner(in.Decomp(), in.FDs(), nil)
		input := cols()
		for _, cand := range pl.All(input) {
			b, err := plan.Check(in.Decomp(), in.FDs(), cand.Op, input)
			if err != nil {
				continue
			}
			bp, err := plan.CompileBatch(in, cand.Op, input, b)
			if err != nil {
				t.Fatalf("plan %s: batch compile failed: %v", cand.Op, err)
			}
			br, ok := bp.Run(in, relation.NewTuple())
			if !ok {
				t.Fatalf("plan %s: batch run bailed on an empty map-rooted instance", cand.Op)
			}
			got := br.Collect()
			br.Release()
			want := plan.Collect(in, cand.Op, relation.NewTuple(), b)
			if !sameKeys(sortedKeys(got), sortedKeys(want)) {
				t.Fatalf("empty instance, plan %s: vectorized %v, interp %v", cand.Op, got, want)
			}
		}
	}
}

// TestVectorizedPartialUnitBails pins the fallback contract on the one
// shape the batch tier refuses at run time: a root unit whose tuple is
// partial (the degenerate ∅ → {a,b} decomposition, whose unit slot is
// never written — Contains is vacuously true for partial units, so inserts
// are no-ops). Every batch run must bail without emitting anything, run
// after pooled run, while the closure tier keeps producing the
// interpreter's answer — the lossless buffer-until-complete fallback.
func TestVectorizedPartialUnitBails(t *testing.T) {
	d, fds := unitRootDecomp()
	in := instance.New(d, fds)
	pl := plan.NewPlanner(d, fds, nil)
	pat := relation.NewTuple()
	cand, err := pl.Best(pat.Dom(), cols("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := plan.CompileBatch(in, cand.Op, pat.Dom(), cols("a", "b"))
	if err != nil {
		t.Fatalf("batch compile failed: %v", err)
	}
	prog, err := plan.Compile(in, cand.Op, pat.Dom(), cols("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ { // twice: the pooled state must stay reusable after a bail
		if br, ok := bp.Run(in, pat); ok {
			br.Release()
			t.Fatalf("run %d: batch run of a partial root unit did not bail", run)
		}
		got := prog.Collect(in, pat, 0)
		want := plan.Collect(in, cand.Op, pat, cols("a", "b"))
		if !sameKeys(sortedKeys(got), sortedKeys(want)) {
			t.Fatalf("run %d after bail: closure %v, interp %v", run, got, want)
		}
	}
}

// TestVectorizedEarlyStop: an EachTuple callback returning false stops the
// sweep and reports incompletion, and the released state is reusable.
func TestVectorizedEarlyStop(t *testing.T) {
	in := schedInstance(t)
	pl := plan.NewPlanner(in.Decomp(), in.FDs(), nil)
	cand, err := pl.Best(cols(), in.Decomp().Cols())
	if err != nil {
		t.Fatal(err)
	}
	bp, err := plan.CompileBatch(in, cand.Op, cols(), in.Decomp().Cols())
	if err != nil {
		t.Fatal(err)
	}
	br, ok := bp.Run(in, relation.NewTuple())
	if !ok {
		t.Fatal("batch run bailed")
	}
	count := 0
	done := br.EachTuple(func(relation.Tuple) bool {
		count++
		return false
	})
	if count != 1 || done {
		t.Errorf("early stop emitted %d rows (done=%v), want 1 (false)", count, done)
	}
	count = 0
	done = br.EachTuple(func(relation.Tuple) bool {
		count++
		return true
	})
	if count != 3 || !done {
		t.Errorf("full sweep emitted %d rows (done=%v), want 3 (true)", count, done)
	}
	count = 0
	done = br.EachRow(func(relation.Tuple) bool {
		count++
		return count < 2
	})
	if count != 2 || done {
		t.Errorf("EachRow stopped after %d rows (done=%v), want 2 (false)", count, done)
	}
	br.Release()
	br.Release() // idempotent
}

// TestVectorizedEachRowSlabs pins what EachRow is for: a sweep whose rows
// the callback keeps allocates one object per slab of rows — the steady
// state allocates nothing else — never one per row, and rows that share a
// slab do not share values. 3 columns × 40 rows crosses eight slabs of five
// rows; 1 column × 10 rows fits a single, exactly-sized one.
func TestVectorizedEachRowSlabs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if race.Enabled {
		t.Skip("sync.Pool randomly drops items under the race detector")
	}
	in := instance.New(paperex.SchedulerDecomp(), paperex.SchedulerFDs())
	for ns := 0; ns < 4; ns++ {
		for pid := 0; pid < 10; pid++ {
			if _, err := in.Insert(paperex.SchedulerTuple(int64(ns), int64(pid), paperex.StateS, int64(pid))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range []struct {
		name          string
		pat           relation.Tuple
		input, output relation.Cols
		rows, slabs   int
	}{
		{"one-slab", relation.NewTuple(relation.BindInt("ns", 2)), cols("ns"), cols("pid"), 10, 1},
		{"two-columns", relation.NewTuple(relation.BindInt("state", paperex.StateS)), cols("state"), cols("ns", "pid"), 40, 5},
		{"three-columns", relation.NewTuple(), cols(), cols("ns", "pid", "cpu"), 40, 8},
	} {
		t.Run(s.name, func(t *testing.T) {
			cand, err := plan.NewPlanner(in.Decomp(), in.FDs(), nil).Best(s.input, s.output)
			if err != nil {
				t.Fatal(err)
			}
			bp, err := plan.CompileBatch(in, cand.Op, s.input, s.output)
			if err != nil {
				t.Fatal(err)
			}
			kept := make([]relation.Tuple, 0, s.rows)
			run := func() {
				kept = kept[:0]
				br, ok := bp.Run(in, s.pat)
				if !ok {
					t.Fatal("batch run bailed")
				}
				br.EachRow(func(tp relation.Tuple) bool { kept = append(kept, tp); return true })
				br.Release()
			}
			run() // warm the pool and scratch
			if allocs := testing.AllocsPerRun(50, run); allocs != float64(s.slabs) {
				t.Errorf("a sweep of %d kept rows allocates %.1f objects, want %d (one per slab)", s.rows, allocs, s.slabs)
			}
			want := plan.Collect(in, cand.Op, s.pat, s.output)
			if len(kept) != s.rows || !sameKeys(sortedKeys(kept), sortedKeys(want)) {
				t.Errorf("kept rows %v\nwant      %v", kept, want)
			}
		})
	}
}

// TestVectorizedSteadyStateAllocs pins the perf acceptance bar that the
// benchmarks measure: a steady-state Run→EachTuple→Release cycle on the
// scan and join shapes allocates nothing.
func TestVectorizedSteadyStateAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if race.Enabled {
		t.Skip("sync.Pool randomly drops items under the race detector")
	}
	type shape struct {
		name   string
		in     *instance.Instance
		pat    relation.Tuple
		input  relation.Cols
		output relation.Cols
		rows   int
	}
	gin := instance.New(paperex.GraphDecomp5(), paperex.GraphFDs())
	for src := 0; src < 8; src++ {
		for i := 0; i < 8; i++ {
			if _, err := gin.Insert(paperex.EdgeTuple(int64(src), int64((src+i+1)%8), int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	sin := instance.New(paperex.SchedulerDecomp(), paperex.SchedulerFDs())
	for ns := 0; ns < 4; ns++ {
		for pid := 0; pid < 8; pid++ {
			state := paperex.StateS
			if pid%4 == 0 {
				state = paperex.StateR
			}
			if _, err := sin.Insert(paperex.SchedulerTuple(int64(ns), int64(pid), state, int64(pid))); err != nil {
				t.Fatal(err)
			}
		}
	}
	shapes := []shape{
		{"scan", gin, relation.NewTuple(relation.BindInt("src", 3)), cols("src"), cols("dst", "weight"), 8},
		{"join", sin, relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("state", paperex.StateR)),
			cols("ns", "state"), cols("pid"), 2},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			pl := plan.NewPlanner(s.in.Decomp(), s.in.FDs(), plan.MeasuredStats(s.in))
			cand, err := pl.Best(s.input, s.output)
			if err != nil {
				t.Fatal(err)
			}
			bp, err := plan.CompileBatch(s.in, cand.Op, s.input, s.output)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			f := func(relation.Tuple) bool { n++; return true }
			run := func() {
				n = 0
				br, ok := bp.Run(s.in, s.pat)
				if !ok {
					t.Fatal("batch run bailed")
				}
				br.EachTuple(f)
				br.Release()
				if n != s.rows {
					t.Fatalf("saw %d rows, want %d", n, s.rows)
				}
			}
			run() // warm the pool and scratch
			if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
				t.Errorf("steady-state %s cycle allocates %.1f objects/op, want 0", s.name, allocs)
			}
		})
	}
}

// TestCompileBatchRejects mirrors the closure tier's compile-time rejection
// cases: an unbound lookup key and an output column the plan never binds.
func TestCompileBatchRejects(t *testing.T) {
	in := schedInstance(t)
	d := in.Decomp()
	edgeXY := d.EdgesOf("x")[0] // x –ns→ y
	edgeYW := d.EdgesOf("y")[0] // y –pid→ w
	unitW := d.UnitsOf("w")[0]
	bad := &plan.LR{Side: plan.Left, Sub: &plan.Lookup{Edge: edgeXY, Sub: &plan.Scan{Edge: edgeYW, Sub: &plan.Unit{U: unitW}}}}
	if _, err := plan.CompileBatch(in, bad, cols("state"), cols("cpu")); err == nil {
		t.Errorf("batch-compiled a lookup with an unbound key")
	}
	if _, err := plan.CompileBatch(in, bad, cols("ns"), cols("cpu")); err != nil {
		t.Errorf("valid plan failed to batch-compile: %v", err)
	}
	pl := plan.NewPlanner(d, in.FDs(), nil)
	cand, err := pl.Best(cols("ns", "pid"), cols("cpu"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.CompileBatch(in, cand.Op, cols("ns", "pid"), cols("nonexistent")); err == nil {
		t.Errorf("batch-compiled a program for an output column the plan never binds")
	}
}
