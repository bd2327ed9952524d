package autotuner_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/autotuner"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/paperex"
	"repro/internal/relation"
)

func graphSpec() *core.Spec {
	return &core.Spec{
		Name: "edges",
		Columns: []core.ColDef{
			{Name: "src", Type: core.IntCol},
			{Name: "dst", Type: core.IntCol},
			{Name: "weight", Type: core.IntCol},
		},
		FDs: paperex.GraphFDs(),
	}
}

func TestEnumerateCountsSingleKey(t *testing.T) {
	// The paper's autotuner generates 84 decompositions of the graph edge
	// relation with at most 4 map edges (Figure 11). Our enumerator, with
	// the same single-column-key discipline, generates 82 — the small gap
	// comes from different conventions at the margins of the shape space,
	// documented in EXPERIMENTS.md.
	spec := graphSpec()
	counts := map[int]int{}
	for _, n := range []int{1, 2, 3, 4} {
		counts[n] = len(autotuner.EnumerateShapes(spec, autotuner.EnumOptions{MaxEdges: n, KeyArity: 1}))
	}
	// Pinned exactly so enumerator changes cannot silently move the
	// headline reproduction number (update deliberately if the enumeration
	// conventions change).
	if counts[4] != 82 {
		t.Errorf("size ≤ 4 shape count = %d, want 82 (paper: 84)", counts[4])
	}
	for n := 2; n <= 4; n++ {
		if counts[n] <= counts[n-1] {
			t.Errorf("shape count not growing: %v", counts)
		}
	}
}

func TestEnumerateAllAdequate(t *testing.T) {
	spec := graphSpec()
	shapes := autotuner.EnumerateShapes(spec, autotuner.EnumOptions{MaxEdges: 3, KeyArity: 1})
	seen := map[string]bool{}
	for _, d := range shapes {
		if err := d.CheckAdequate(spec.Cols(), spec.FDs); err != nil {
			t.Errorf("enumerated inadequate decomposition:\n%s\n%v", d, err)
		}
		key := d.CanonicalShape()
		if seen[key] {
			t.Errorf("duplicate shape: %s", key)
		}
		seen[key] = true
	}
}

func TestEnumerateIncludesPaperShapes(t *testing.T) {
	// Decompositions 1, 5 and 9 of Figure 12 must appear among the
	// enumerated shapes (up to data-structure choice).
	spec := graphSpec()
	shapes := autotuner.EnumerateShapes(spec, autotuner.EnumOptions{MaxEdges: 4, KeyArity: 1})
	keys := map[string]bool{}
	for _, d := range shapes {
		keys[d.CanonicalShape()] = true
	}
	for name, want := range map[string]*decomp.Decomp{
		"decomp1": paperex.GraphDecomp1(),
		"decomp5": paperex.GraphDecomp5(),
		"decomp9": paperex.GraphDecomp9(),
	} {
		if !keys[want.CanonicalShape()] {
			t.Errorf("%s not found among enumerated shapes", name)
		}
	}
}

func TestEnumerateSingleColumnSetRelation(t *testing.T) {
	// A one-column relation (the graph benchmark's nodes relation) can only
	// be represented as key → empty unit; the enumerator must produce it.
	spec := &core.Spec{
		Name:    "nodes",
		Columns: []core.ColDef{{Name: "id", Type: core.IntCol}},
	}
	shapes := autotuner.EnumerateShapes(spec, autotuner.EnumOptions{MaxEdges: 2, KeyArity: 1})
	if len(shapes) == 0 {
		t.Fatalf("no shapes for single-column relation")
	}
	for _, d := range shapes {
		if err := d.CheckAdequate(spec.Cols(), spec.FDs); err != nil {
			t.Errorf("inadequate: %v", err)
		}
	}
}

func TestAssignments(t *testing.T) {
	spec := graphSpec()
	d := paperex.GraphDecomp1()
	palette := []dstruct.Kind{dstruct.HTableKind, dstruct.AVLKind}
	as := autotuner.Assignments(spec, d, palette, 0)
	// 2 edges × 2 kinds = 4 combos, plus the original assignment first.
	if len(as) != 5 {
		t.Fatalf("got %d assignments, want 5", len(as))
	}
	if as[0] != d {
		t.Errorf("original assignment not first")
	}
	capped := autotuner.Assignments(spec, d, palette, 3)
	if len(capped) != 3 {
		t.Errorf("cap not applied: %d", len(capped))
	}
	// Vector over the string column must be filtered out.
	specStr := graphSpec()
	specStr.Columns[0].Type = core.StringCol // src becomes a string
	vecOnly := autotuner.Assignments(specStr, d, []dstruct.Kind{dstruct.VectorKind}, 0)
	if len(vecOnly) != 1 { // only the original survives
		t.Errorf("vector-over-string assignments not filtered: %d", len(vecOnly))
	}
}

func TestTuneRanksByCost(t *testing.T) {
	// A benchmark that rewards decompositions answering src→dst queries
	// cheaply: insert a small graph, run many successor queries, cost =
	// number of emitted visit steps, approximated here by wall time being
	// replaced with a deterministic op counter via QueryFunc calls.
	spec := graphSpec()
	bench := func(r *core.Relation, deadline time.Time) (float64, error) {
		ops := 0
		for s := int64(0); s < 8; s++ {
			for d := int64(0); d < 8; d++ {
				if err := r.Insert(paperex.EdgeTuple(s, d, s+d)); err != nil {
					return 0, err
				}
			}
		}
		start := time.Now()
		for rep := 0; rep < 30; rep++ {
			for s := int64(0); s < 8; s++ {
				err := r.QueryFunc(relation.NewTuple(relation.BindInt("src", s)), []string{"dst"}, func(relation.Tuple) bool {
					ops++
					return true
				})
				if err != nil {
					return 0, err
				}
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return 0, autotuner.ErrTimeout
			}
		}
		return time.Since(start).Seconds(), nil
	}
	results, err := autotuner.Tune(spec, autotuner.Options{
		MaxEdges:       2,
		KeyArity:       1,
		Palette:        []dstruct.Kind{dstruct.HTableKind, dstruct.DListKind},
		MaxAssignments: 8,
		Timeout:        2 * time.Second,
	}, bench)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	// Sorted by cost, failures last.
	lastCost := -1.0
	seenFailed := false
	okCount := 0
	for _, res := range results {
		if res.Failed {
			seenFailed = true
			continue
		}
		okCount++
		if seenFailed {
			t.Errorf("successful result after failed ones")
		}
		if res.Cost < lastCost {
			t.Errorf("results not sorted by cost")
		}
		lastCost = res.Cost
		if res.Decomp == nil || res.Tried == 0 {
			t.Errorf("result missing decomposition or tried-count")
		}
	}
	if okCount == 0 {
		t.Fatalf("every shape failed: %+v", results[0].Err)
	}
}

func TestTuneLintPruning(t *testing.T) {
	// With Lint on, shapes the decomposition linter flags (at size 3 the
	// graph relation enumerates shadow joins — both branches keyed the
	// same way) are never benchmarked, appear last, and carry the
	// findings that condemned them; every other shape still runs.
	spec := graphSpec()
	benched := 0
	bench := func(r *core.Relation, _ time.Time) (float64, error) {
		benched++
		return float64(benched), nil
	}
	results, err := autotuner.Tune(spec, autotuner.Options{
		MaxEdges:       3,
		KeyArity:       1,
		Palette:        []dstruct.Kind{dstruct.HTableKind},
		MaxAssignments: 1,
		Lint:           true,
		Workers:        1, // bench counts calls in a plain int
	}, bench)
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	seenPruned := false
	for _, res := range results {
		if res.Pruned {
			pruned++
			seenPruned = true
			if res.Tried != 0 {
				t.Errorf("pruned shape was benchmarked %d times", res.Tried)
			}
			if len(res.Diags) == 0 {
				t.Errorf("pruned shape carries no explaining diagnostics")
			}
			continue
		}
		if seenPruned {
			t.Errorf("non-pruned result sorted after pruned ones")
		}
		if len(res.Diags) != 0 {
			t.Errorf("un-pruned shape carries diagnostics: %v", res.Diags)
		}
	}
	if pruned == 0 {
		t.Fatal("no shapes pruned; expected shadow joins at size 3")
	}
	if pruned == len(results) {
		t.Fatal("every shape pruned")
	}

	// Suppressing the only firing code must restore the full sweep.
	benched = 0
	all, err := autotuner.Tune(spec, autotuner.Options{
		MaxEdges:       3,
		KeyArity:       1,
		Palette:        []dstruct.Kind{dstruct.HTableKind},
		MaxAssignments: 1,
		Lint:           true,
		LintSuppress:   []string{"relvet006"},
		Workers:        1,
	}, bench)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range all {
		if res.Pruned {
			t.Errorf("shape pruned despite suppression: %v", res.Diags)
		}
	}
}

func TestTuneSurvivesPanickingCandidates(t *testing.T) {
	spec := graphSpec()
	calls := 0
	bench := func(r *core.Relation, _ time.Time) (float64, error) {
		calls++
		if calls%2 == 0 {
			panic("deliberate test panic")
		}
		return float64(calls), nil
	}
	results, err := autotuner.Tune(spec, autotuner.Options{
		MaxEdges: 2, KeyArity: 1,
		Palette:        []dstruct.Kind{dstruct.HTableKind},
		MaxAssignments: 2,
		Workers:        1, // bench counts calls in a plain int
	}, bench)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results despite recovering from panics")
	}
}

func TestTuneRejectsBadSpec(t *testing.T) {
	if _, err := autotuner.Tune(&core.Spec{}, autotuner.Options{MaxEdges: 2}, nil); err == nil {
		t.Errorf("tune accepted invalid spec")
	}
}

func TestShapeStringsAreReadable(t *testing.T) {
	spec := graphSpec()
	shapes := autotuner.EnumerateShapes(spec, autotuner.EnumOptions{MaxEdges: 2, KeyArity: 1})
	for _, d := range shapes {
		if !strings.Contains(d.String(), "let") {
			t.Errorf("unprintable decomposition: %q", d.String())
		}
	}
}

// TestTuneParallelDeterministic: the worker-pool sweep must produce exactly
// the sequential sweep's results — same winners, same costs, same order —
// for any worker count. The benchmark's cost is a pure function of the
// candidate (a hash of its rendering), so completion order is the only
// thing that could differ between runs, and it must not matter.
func TestTuneParallelDeterministic(t *testing.T) {
	spec := graphSpec()
	bench := func(r *core.Relation, _ time.Time) (float64, error) {
		h := uint64(14695981039346656037)
		for _, b := range []byte(r.Decomp().String()) {
			h = (h ^ uint64(b)) * 1099511628211
		}
		if h%13 == 0 {
			return 0, autotuner.ErrTimeout // some candidates "fail", deterministically
		}
		return float64(h % 1000), nil
	}
	opts := autotuner.Options{
		MaxEdges: 2, KeyArity: 1,
		Palette:        []dstruct.Kind{dstruct.HTableKind, dstruct.DListKind},
		MaxAssignments: 8,
	}
	opts.Workers = 1
	seq, err := autotuner.Tune(spec, opts, bench)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		opts.Workers = workers
		par, err := autotuner.Tune(spec, opts, bench)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d results vs sequential %d", workers, len(par), len(seq))
		}
		for i := range seq {
			s, p := seq[i], par[i]
			if s.Shape != p.Shape || s.Cost != p.Cost || s.Tried != p.Tried || s.Failed != p.Failed {
				t.Fatalf("workers=%d result %d differs:\nseq %+v\npar %+v", workers, i, s, p)
			}
			if s.Decomp.String() != p.Decomp.String() {
				t.Fatalf("workers=%d result %d chose %s, sequential chose %s",
					workers, i, p.Decomp, s.Decomp)
			}
		}
	}
}
