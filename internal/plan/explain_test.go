package plan_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/fd"
	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/relation"
)

var update = flag.Bool("update", false, "rewrite the plan.Explain golden files")

// explainShape is one query shape: the columns the input binds and the
// columns the query must produce.
type explainShape struct {
	in, out []string
}

type explainCase struct {
	name   string
	d      *decomp.Decomp
	fds    fd.Set
	shapes []explainShape
}

// explainCorpus is the six-decomposition corpus the fault-injection
// harness also uses: the Figure 2(a) scheduler, the three Figure 12 graph
// decompositions, a four-level lookup chain, and a two-candidate-key join.
// The latter two are re-declared here because the harness package imports
// the engine (and hence this package).
func explainCorpus() []explainCase {
	deep := decomp.MustNew([]decomp.Binding{
		decomp.Let("w", []string{"a", "b", "c"}, []string{"d"}, decomp.U("d")),
		decomp.Let("v", []string{"a", "b"}, []string{"c", "d"}, decomp.M(dstruct.AVLKind, "w", "c")),
		decomp.Let("u", []string{"a"}, []string{"b", "c", "d"}, decomp.M(dstruct.SListKind, "v", "b")),
		decomp.Let("x", nil, []string{"a", "b", "c", "d"}, decomp.M(dstruct.HTableKind, "u", "a")),
	}, "x")
	deepFDs := fd.NewSet(fd.FD{From: relation.NewCols("a", "b", "c"), To: relation.NewCols("d")})

	twoKey := decomp.MustNew([]decomp.Binding{
		decomp.Let("w", []string{"k1", "k2"}, []string{"v"}, decomp.U("v")),
		decomp.Let("y", []string{"k1"}, []string{"k2", "v"}, decomp.M(dstruct.HTableKind, "w", "k2")),
		decomp.Let("z", []string{"k2"}, []string{"k1", "v"}, decomp.M(dstruct.HTableKind, "w", "k1")),
		decomp.Let("x", nil, []string{"k1", "k2", "v"},
			decomp.J(decomp.M(dstruct.HTableKind, "y", "k1"), decomp.M(dstruct.HTableKind, "z", "k2"))),
	}, "x")
	twoKeyFDs := fd.NewSet(
		fd.FD{From: relation.NewCols("k1"), To: relation.NewCols("k2", "v")},
		fd.FD{From: relation.NewCols("k2"), To: relation.NewCols("k1", "v")},
	)

	// splitPayload forces a qjoin: the payload columns a and b live on
	// different sides of the join, so no single-side qlr plan covers a
	// keyed read of both and the planner must drive one side from the
	// other — the shape that exercises the Join rendering.
	splitPayload := decomp.MustNew([]decomp.Binding{
		decomp.Let("ua", []string{"k"}, []string{"a"}, decomp.U("a")),
		decomp.Let("ub", []string{"k"}, []string{"b"}, decomp.U("b")),
		decomp.Let("x", nil, []string{"k", "a", "b"},
			decomp.J(decomp.M(dstruct.HTableKind, "ua", "k"), decomp.M(dstruct.HTableKind, "ub", "k"))),
	}, "x")
	splitFDs := fd.NewSet(fd.FD{From: relation.NewCols("k"), To: relation.NewCols("a", "b")})

	graphShapes := []explainShape{
		{in: nil, out: []string{"src", "dst", "weight"}},
		{in: []string{"src"}, out: []string{"dst", "weight"}},
		{in: []string{"dst"}, out: []string{"src"}},
		{in: []string{"src", "dst"}, out: []string{"weight"}},
	}
	return []explainCase{
		{
			name: "scheduler",
			d:    paperex.SchedulerDecomp(),
			fds:  paperex.SchedulerFDs(),
			shapes: []explainShape{
				{in: nil, out: []string{"ns", "pid", "state", "cpu"}},
				{in: []string{"ns", "pid"}, out: []string{"cpu"}},
				{in: []string{"ns", "pid"}, out: []string{"state", "cpu"}},
				{in: []string{"state"}, out: []string{"ns", "pid"}},
			},
		},
		{name: "graph-1", d: paperex.GraphDecomp1(), fds: paperex.GraphFDs(), shapes: graphShapes},
		{name: "graph-5", d: paperex.GraphDecomp5(), fds: paperex.GraphFDs(), shapes: graphShapes},
		{name: "graph-9", d: paperex.GraphDecomp9(), fds: paperex.GraphFDs(), shapes: graphShapes},
		{
			name: "deep-chain",
			d:    deep,
			fds:  deepFDs,
			shapes: []explainShape{
				{in: nil, out: []string{"a", "b", "c", "d"}},
				{in: []string{"a", "b", "c"}, out: []string{"d"}},
				{in: []string{"a"}, out: []string{"b", "c", "d"}},
			},
		},
		{
			name: "split-payload",
			d:    splitPayload,
			fds:  splitFDs,
			shapes: []explainShape{
				{in: []string{"k"}, out: []string{"a", "b"}},
				{in: nil, out: []string{"k", "a", "b"}},
			},
		},
		{
			name: "two-key",
			d:    twoKey,
			fds:  twoKeyFDs,
			shapes: []explainShape{
				{in: nil, out: []string{"k1", "k2", "v"}},
				{in: []string{"k1"}, out: []string{"v"}},
				{in: []string{"k2"}, out: []string{"k1", "v"}},
			},
		},
	}
}

// renderExplain builds the golden text for one case: every shape's chosen
// plan in paper notation followed by the annotated tree.
func renderExplain(c explainCase) string {
	var b strings.Builder
	pl := plan.NewPlanner(c.d, c.fds, nil)
	for i, s := range c.shapes {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "query {%s} -> {%s}\n", strings.Join(s.in, ","), strings.Join(s.out, ","))
		cand, err := pl.Best(relation.NewCols(s.in...), relation.NewCols(s.out...))
		if err != nil {
			fmt.Fprintf(&b, "no plan: %v\n", err)
			continue
		}
		fmt.Fprintf(&b, "plan: %s\n", cand.Op)
		b.WriteString(pl.Explain(cand.Op))
	}
	return b.String()
}

// TestExplainGolden pins plan.Explain's output for the corpus. Run with
// -update to regenerate testdata/explain/*.golden after an intentional
// format or cost-model change.
func TestExplainGolden(t *testing.T) {
	for _, c := range explainCorpus() {
		t.Run(c.name, func(t *testing.T) {
			got := renderExplain(c)
			path := filepath.Join("testdata", "explain", c.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run `go test ./internal/plan -run TestExplainGolden -update` to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("explain output differs from %s (rerun with -update if intended)\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestExplainRootMatchesEstimate checks the root line's cost annotation is
// exactly the estimator's whole-plan cost — the number the planner
// compared candidates by.
func TestExplainRootMatchesEstimate(t *testing.T) {
	for _, c := range explainCorpus() {
		pl := plan.NewPlanner(c.d, c.fds, nil)
		for _, s := range c.shapes {
			cand, err := pl.Best(relation.NewCols(s.in...), relation.NewCols(s.out...))
			if err != nil {
				continue
			}
			tree := pl.Explain(cand.Op)
			first, _, _ := strings.Cut(tree, "\n")
			want := fmt.Sprintf("cost=%-9.2f", cand.Cost)
			if !strings.Contains(first, strings.TrimSpace(want)) {
				t.Errorf("%s {%v}->{%v}: root line %q does not carry plan cost %.2f",
					c.name, s.in, s.out, first, cand.Cost)
			}
		}
	}
}
