package plan_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/instance"
	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/race"
	"repro/internal/relation"
	"repro/internal/value"
)

// collectBoth runs the cheapest plan for input → output on the batch tier
// and on the interpreter. The interpreter's Collect boxes every row,
// de-duplicates on canonical keys and sorts with relation.SortTuples: the
// definition the batch tier's code-word Collect must reproduce, row for row
// and in order.
func collectBoth(t *testing.T, in *instance.Instance, pat relation.Tuple, output relation.Cols) (got, want []relation.Tuple) {
	t.Helper()
	cand, err := plan.NewPlanner(in.Decomp(), in.FDs(), nil).Best(pat.Dom(), output)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := plan.CompileBatch(in, cand.Op, pat.Dom(), output)
	if err != nil {
		t.Fatal(err)
	}
	br, ok := bp.Run(in, pat)
	if !ok {
		t.Fatal("batch run bailed")
	}
	got = br.Collect()
	br.Release()
	return got, plan.Collect(in, cand.Op, pat, output)
}

// TestCollectOrderIsSortTuples holds the order Collect sorts row indices
// into — comparing code words, decoding only where a dictionary code is
// involved — to relation.SortTuples' on every kind of compare there is:
// strings against strings, a column that mixes integers and strings,
// inline integers, and 64-bit integers too wide to inline, against each
// other and against inline ones.
func TestCollectOrderIsSortTuples(t *testing.T) {
	in := instance.New(paperex.GraphDecomp1(), paperex.GraphFDs())
	srcs := []value.Value{value.OfString("b"), value.OfString(""), value.OfString("ab"), value.OfString("a"), value.OfString("aa")}
	dsts := []value.Value{value.OfInt(3), value.OfString("3"), value.OfInt(-7), value.OfString("x"), value.OfInt(0), value.OfInt(1 << 40)}
	weights := []value.Value{
		value.OfInt(math.MaxInt64), value.OfInt(5), value.OfInt(math.MinInt64), value.OfInt(-5),
		value.OfInt(math.MaxInt64>>1 + 1), value.OfInt(0), value.OfInt(math.MinInt64>>1 - 1),
		value.OfInt(math.MaxInt64 >> 1), value.OfInt(math.MinInt64 >> 1),
	}
	n := 0
	for _, src := range srcs {
		for _, dst := range dsts {
			tup := relation.NewTuple(relation.Bind("src", src), relation.Bind("dst", dst), relation.Bind("weight", weights[n%len(weights)]))
			n++
			if _, err := in.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, output := range []relation.Cols{
		cols("src"), cols("dst"), cols("weight"), cols("dst", "src"), cols("src", "weight"),
		cols("dst", "weight"), cols("src", "dst", "weight"),
	} {
		got, want := collectBoth(t, in, relation.NewTuple(), output)
		if !slices.EqualFunc(got, want, relation.Tuple.Equal) {
			t.Errorf("output %v:\n collected %v\n SortTuples %v", output, got, want)
		}
	}
}

// TestCollectDuplicateHeavy: 30,720 rows projecting onto 1,024 distinct
// values — every row but one in thirty is a duplicate the dedup table must
// drop before anything is sorted or boxed — and the same scan projected so
// that every row is distinct.
func TestCollectDuplicateHeavy(t *testing.T) {
	in := benchGraph(t, 1024, 30)
	for _, c := range []struct {
		output relation.Cols
		rows   int
	}{{cols("dst"), 1024}, {cols("weight"), 30}, {cols("src", "dst"), 30720}} {
		got, want := collectBoth(t, in, relation.NewTuple(), c.output)
		if len(got) != c.rows || !slices.EqualFunc(got, want, relation.Tuple.Equal) {
			t.Errorf("output %v: collected %d rows, interpreter %d, want %d equal rows", c.output, len(got), len(want), c.rows)
		}
	}
}

// TestCollectAllocationCeiling pins what a collected row costs: its share
// of a value slab, like a streamed row the caller keeps, plus one result
// slice per call — not a tuple, a key string and a map entry each. The
// parent's Collect made 254 allocations for the first shape; its range
// query, on the interpreter, 1,446 for the second.
func TestCollectAllocationCeiling(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if race.Enabled {
		t.Skip("sync.Pool randomly drops items under the race detector")
	}
	in := benchGraph(t, 128, 120)
	pl := plan.NewPlanner(in.Decomp(), in.FDs(), plan.MeasuredStats(in))
	output := cols("dst", "weight")

	// 120 rows × 2 columns: fifteen slabs and the result (16).
	cand, err := pl.Best(cols("src"), output)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := plan.CompileBatch(in, cand.Op, cols("src"), output)
	if err != nil {
		t.Fatal(err)
	}
	pat := relation.NewTuple(relation.BindInt("src", 3))
	rows := 0
	query := func() {
		br, ok := bp.Run(in, pat)
		if !ok {
			t.Fatal("batch run bailed")
		}
		rows = len(br.Collect())
		br.Release()
	}
	query() // warm the pool and scratch
	if allocs := testing.AllocsPerRun(50, query); rows != 120 || allocs > 24 {
		t.Errorf("collecting %d rows × 2 columns allocates %.1f objects, want 120 rows in at most 24", rows, allocs)
	}

	// A range over two sources, 240 rows × 2 columns: thirty slabs, the
	// result, and the seek's visitor closure (34).
	cand, err = pl.Best(cols(), cols("src", "dst", "weight"))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plan.CompileBatchRange(in, cand.Op, cols(), output, "src")
	if err != nil {
		t.Fatal(err)
	}
	rg := plan.Range{Col: "src", Lo: value.OfInt(3), HasLo: true, Hi: value.OfInt(4), HasHi: true}
	queryRange := func() {
		br, ok := rp.RunRange(in, relation.NewTuple(), rg)
		if !ok {
			t.Fatal("batch run bailed")
		}
		rows = len(br.Collect())
		br.Release()
	}
	queryRange()
	if allocs := testing.AllocsPerRun(50, queryRange); rows != 240 || allocs > 56 {
		t.Errorf("a range collecting %d rows × 2 columns allocates %.1f objects, want 240 rows in at most 56", rows, allocs)
	}
}

// TestMergeParts merges the answers of four instances of one plan — three
// held batch results and one part of boxed rows, plus two empty parts —
// into the interpreter's answer over their union. Each instance interned
// the same strings and wide integers in its own order, so equal codes of
// two instances name different values: a held row must decode through its
// own instance's view, and order against a boxed row as its value does.
func TestMergeParts(t *testing.T) {
	vals := []value.Value{
		value.OfString("b"), value.OfString(""), value.OfString("ab"), value.OfString("a"),
		value.OfInt(3), value.OfInt(-7), value.OfInt(1 << 62), value.OfInt(math.MinInt64),
	}
	rnd := rand.New(rand.NewSource(5))
	all := cols("src", "dst", "weight")
	union := relation.Empty(all)
	var cells []*instance.Instance
	for range 4 {
		in := instance.New(paperex.GraphDecomp1(), paperex.GraphFDs())
		for _, i := range rnd.Perm(len(vals)) {
			for _, j := range rnd.Perm(len(vals))[:3] {
				// The weight is a function of the pair, so an edge two
				// cells both hold is one tuple of the union.
				tup := relation.NewTuple(relation.Bind("src", vals[i]), relation.Bind("dst", vals[j]),
					relation.Bind("weight", vals[(i*3+j)%len(vals)]))
				if _, err := in.Insert(tup); err != nil {
					t.Fatal(err)
				}
				_ = union.Insert(tup)
			}
		}
		cells = append(cells, in)
	}
	for _, output := range []relation.Cols{cols("src"), cols("weight"), cols("dst", "src"), all} {
		parts := []plan.Part{{}, {Rows: []relation.Tuple{}}}
		for i, in := range cells {
			cand, err := plan.NewPlanner(in.Decomp(), in.FDs(), nil).Best(cols(), output)
			if err != nil {
				t.Fatal(err)
			}
			if i == len(cells)-1 {
				parts = append(parts, plan.Part{Rows: plan.Collect(in, cand.Op, relation.NewTuple(), output)})
				continue
			}
			bp, err := plan.CompileBatch(in, cand.Op, cols(), output)
			if err != nil {
				t.Fatal(err)
			}
			br, ok := bp.Run(in, relation.NewTuple())
			if !ok {
				t.Fatal("batch run bailed")
			}
			parts = append(parts, plan.Part{Res: br})
		}
		want := union.Query(relation.NewTuple(), output)
		relation.SortTuples(want)
		if got := plan.Merge(parts); !slices.EqualFunc(got, want, relation.Tuple.Equal) {
			t.Errorf("output %v:\n merged %v\n  union %v", output, got, want)
		}
	}
}
