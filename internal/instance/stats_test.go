package instance_test

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/instance"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/value"
)

func TestEdgeStats(t *testing.T) {
	in := instance.New(paperex.SchedulerDecomp(), paperex.SchedulerFDs())
	for _, tup := range paperex.SchedulerRelation().All() {
		if _, err := in.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	d := in.Decomp()
	stats := in.EdgeStats()
	// x→y keyed ns: one x instance holding two namespaces.
	exy := d.EdgesOf("x")[0]
	if s := stats[exy.ID]; s.Parents != 1 || s.Entries != 2 {
		t.Errorf("x→y stats = %+v", s)
	}
	if got := stats[exy.ID].Fanout(); got != 2 {
		t.Errorf("x→y fanout = %v", got)
	}
	// x→z keyed state: two states.
	exz := d.EdgesOf("x")[1]
	if s := stats[exz.ID]; s.Parents != 1 || s.Entries != 2 {
		t.Errorf("x→z stats = %+v", s)
	}
	// y→w keyed pid: two y instances with 2+1 children.
	eyw := d.EdgesOf("y")[0]
	if s := stats[eyw.ID]; s.Parents != 2 || s.Entries != 3 {
		t.Errorf("y→w stats = %+v", s)
	}
	if got := stats[eyw.ID].Fanout(); got != 1.5 {
		t.Errorf("y→w fanout = %v", got)
	}
}

// sharedInterior is a decomposition whose shared node is not a leaf: s is
// reached from both sides of the join and has an edge of its own, so a walk
// that forgot it had entered s would count s's edge twice. Every shared
// node of spec/*.rel is a unit leaf.
const sharedInterior = `
relation r {
  columns { a int, b int, c int, d int }
  fd a, b, c -> d
}
decomposition shared for r {
  let w : {a, b, c} . {d} = unit {d}
  let s : {a, b} . {c, d} = map htable {c} -> w
  let bya : {a} . {b, c, d} = map htable {b} -> s
  let byb : {b} . {a, c, d} = map avl {a} -> s
  let root : {} . {a, b, c, d} = join(map htable {a} -> bya, map htable {b} -> byb)
  in root
}
`

// TestEdgeStatsMatchesMapWalk checks the pruned profiling walk — leaves not
// entered, only shared nodes remembered — against the walk that remembers
// every node, on every decomposition in spec/*.rel (the benchmark's flows,
// processes and graphedges among them) and on sharedInterior, each loaded
// with tuples over small domains, so nodes are shared, and thinned by
// removes. Equal statistics mean the planner picks the same plans.
func TestEdgeStatsMatchesMapWalk(t *testing.T) {
	files, err := filepath.Glob("../../spec/*.rel")
	if err != nil {
		t.Fatal(err)
	}
	var covered []string
	for _, file := range append(files, "") {
		src := []byte(sharedInterior)
		if file != "" {
			if src, err = os.ReadFile(file); err != nil {
				t.Fatal(err)
			}
		}
		f, err := dsl.ParseFile(filepath.Base(file), string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range f.Decomps {
			covered = append(covered, nd.Name)
			r, err := core.New(nd.For, nd.D)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(covered))))
			cell := func(c core.ColDef) value.Value {
				if c.Type == core.IntCol {
					return value.OfInt(int64(rng.Intn(30)))
				}
				return value.OfString(fmt.Sprint("s", rng.Intn(30)))
			}
			var kept []relation.Tuple
			for i := 0; i < 1500; i++ {
				if i%8 == 7 && len(kept) > 0 {
					_, _ = r.Remove(kept[rng.Intn(len(kept))])
					continue
				}
				var bs []relation.Binding
				for _, c := range nd.For.Columns {
					bs = append(bs, relation.Bind(c.Name, cell(c)))
				}
				if tup := relation.NewTuple(bs...); r.Insert(tup) == nil { // an FD violation is rejected whole
					kept = append(kept, tup)
				}
			}
			in := r.Instance()
			if got, want := in.EdgeStats(), in.EdgeStatsByMapWalk(); !maps.Equal(got, want) {
				t.Errorf("%s/%s at %d tuples: EdgeStats %v, map walk %v", file, nd.Name, in.Len(), got, want)
			}
		}
	}
	for _, name := range []string{"flows", "processes", "graphedges", "shared"} {
		if !slices.Contains(covered, name) {
			t.Errorf("decomposition %s not in spec/*.rel", name)
		}
	}
}

func TestEdgeStatsEmpty(t *testing.T) {
	in := instance.New(paperex.SchedulerDecomp(), paperex.SchedulerFDs())
	for _, s := range in.EdgeStats() {
		if s.Fanout() != 1 {
			t.Errorf("empty-instance fanout = %v, want default 1", s.Fanout())
		}
	}
}

func TestNodeCountSharing(t *testing.T) {
	// Sharing: decomposition 5 allocates one weight node per edge tuple;
	// decomposition 9 allocates two.
	edges := []struct{ s, d, w int64 }{{1, 2, 10}, {2, 3, 20}, {3, 1, 30}}
	load := func(in *instance.Instance) {
		for _, e := range edges {
			if _, err := in.Insert(paperex.EdgeTuple(e.s, e.d, e.w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	shared := instance.New(paperex.GraphDecomp5(), paperex.GraphFDs())
	unshared := instance.New(paperex.GraphDecomp9(), paperex.GraphFDs())
	load(shared)
	load(unshared)
	if s, u := shared.NodeCount(), unshared.NodeCount(); s >= u {
		t.Errorf("shared decomposition uses %d nodes, unshared %d — sharing saved nothing", s, u)
	} else if u-s != len(edges) {
		t.Errorf("expected exactly one saved node per edge: shared=%d unshared=%d", s, u)
	}
}
