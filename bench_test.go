// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (§6), plus ablations for the
// design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Scales are reduced so the full suite runs in minutes; cmd/paperbench
// regenerates the figures at larger scale with flags.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/autotuner"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/experiments"
	"repro/internal/gen/graphedges"
	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/systems/ipcap"
	"repro/internal/systems/thttpdcache"
	"repro/internal/systems/ztopo"
	"repro/internal/value"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 11: the graph micro-benchmark. Per-decomposition benches reproduce
// the figure's bars for the three representative decompositions (Figure 12)
// in all three variants (F, F+B, F+B+D); the Sweep bench runs a reduced
// autotuner enumeration like the full figure.

func benchGraph(b *testing.B, mk func() *decomp.Decomp, phase string) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, edges, nodes := graphBenchRelation(b, mk())
		b.StartTimer()
		times, err := experiments.RunGraphBench(r, edges, nodes, time.Time{})
		if err != nil {
			b.Fatal(err)
		}
		switch phase {
		case "F":
			b.ReportMetric(times.F, "F-s/op")
		case "FB":
			b.ReportMetric(times.FB, "FB-s/op")
		default:
			b.ReportMetric(times.FBD, "FBD-s/op")
		}
	}
}

func BenchmarkFig11Decomp1(b *testing.B) {
	for _, phase := range []string{"F", "FB", "FBD"} {
		b.Run(phase, func(b *testing.B) { benchGraph(b, paperex.GraphDecomp1, phase) })
	}
}

func BenchmarkFig11Decomp5(b *testing.B) {
	for _, phase := range []string{"F", "FB", "FBD"} {
		b.Run(phase, func(b *testing.B) { benchGraph(b, paperex.GraphDecomp5, phase) })
	}
}

func BenchmarkFig11Decomp9(b *testing.B) {
	for _, phase := range []string{"F", "FB", "FBD"} {
		b.Run(phase, func(b *testing.B) { benchGraph(b, paperex.GraphDecomp9, phase) })
	}
}

// BenchmarkFig11Generated runs the same workload through the relc-generated
// edge relation (decomposition 5's shape), the compiled deployment mode.
func BenchmarkFig11Generated(b *testing.B) {
	edges := workload.RoadNetwork(benchGridN, 11)
	nodes := workload.NodeCount(benchGridN)
	for i := 0; i < b.N; i++ {
		g := graphedges.New()
		for _, e := range edges {
			if _, err := g.Insert(graphedges.Tuple{Src: e.Src, Dst: e.Dst, Weight: e.Weight}); err != nil {
				b.Fatal(err)
			}
		}
		dfs := func(succs func(v int64, visit func(int64))) {
			visited := make([]bool, nodes)
			var stack []int64
			for v0 := 0; v0 < nodes; v0++ {
				if visited[v0] {
					continue
				}
				stack = append(stack[:0], int64(v0))
				for len(stack) > 0 {
					v := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if visited[v] {
						continue
					}
					visited[v] = true
					succs(v, func(n int64) {
						if !visited[n] {
							stack = append(stack, n)
						}
					})
				}
			}
		}
		dfs(func(v int64, visit func(int64)) {
			g.QueryBySrcSelDst(v, func(d int64) bool { visit(d); return true })
		})
		dfs(func(v int64, visit func(int64)) {
			g.QueryByDstSelSrc(v, func(s int64) bool { visit(s); return true })
		})
		for _, e := range edges {
			g.RemoveByDstSrc(e.Dst, e.Src)
		}
		if g.Len() != 0 {
			b.Fatal("edges left after deletion")
		}
	}
}

// BenchmarkFig11Sweep runs a reduced autotuner sweep (size ≤ 2) per
// iteration — the full figure is cmd/paperbench fig11.
func BenchmarkFig11Sweep(b *testing.B) {
	cfg := experiments.Fig11Config{
		GridN: 8, Seed: 5, MaxEdges: 2,
		Palette:        []dstruct.Kind{dstruct.HTableKind, dstruct.DListKind},
		MaxAssignments: 4,
		Timeout:        300 * time.Millisecond,
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 13: IpCap flow accounting. The named decompositions reproduce the
// figure's headline comparison: the tuned layout vs its transposition
// (the paper reports ≈5×) vs hand-coded vs relc-generated.

func benchIpcap(b *testing.B, table func() ipcap.FlowTable) {
	trace := workload.PacketTrace(30_000, 64, 200_000, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := ipcap.NewDaemon(table(), nil, 10_000)
		for _, p := range trace {
			if err := d.HandlePacket(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Handcoded(b *testing.B) {
	benchIpcap(b, func() ipcap.FlowTable { return ipcap.NewHandFlowTable() })
}

func BenchmarkFig13SynthDefault(b *testing.B) {
	benchIpcap(b, func() ipcap.FlowTable {
		t, err := ipcap.NewSynthFlowTable(ipcap.DefaultFlowDecomp())
		if err != nil {
			b.Fatal(err)
		}
		return t
	})
}

func BenchmarkFig13SynthTransposed(b *testing.B) {
	benchIpcap(b, func() ipcap.FlowTable {
		t, err := ipcap.NewSynthFlowTable(ipcap.TransposedFlowDecomp())
		if err != nil {
			b.Fatal(err)
		}
		return t
	})
}

func BenchmarkFig13Generated(b *testing.B) {
	benchIpcap(b, func() ipcap.FlowTable { return ipcap.NewGenFlowTable() })
}

func BenchmarkFig13GeneratedTransposed(b *testing.B) {
	benchIpcap(b, func() ipcap.FlowTable { return ipcap.NewGenTransposedFlowTable() })
}

// ---------------------------------------------------------------------------
// Table 1 / §6.2 parity: hand-coded vs interpreted vs relc-generated for
// each case-study system on its workload.

func BenchmarkParityThttpd(b *testing.B) {
	reqs := workload.Zipf(4000, 500, 1.1, 21)
	for _, v := range []struct {
		name string
		mk   func() thttpdcache.Cache
	}{
		{"handcoded", func() thttpdcache.Cache { return thttpdcache.NewHandCache() }},
		{"interpreted", func() thttpdcache.Cache {
			c, err := thttpdcache.NewSynthCache(thttpdcache.DefaultMapDecomp())
			if err != nil {
				b.Fatal(err)
			}
			return c
		}},
		{"generated", func() thttpdcache.Cache { return thttpdcache.NewGenCache() }},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store := thttpdcache.NewFileStore()
				srv := thttpdcache.NewServer(v.mk(), store, 64, 300)
				for _, r := range reqs {
					if _, err := srv.GetFile(fmt.Sprintf("/files/%d.html", r)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkParityZtopo(b *testing.B) {
	accesses := workload.Zipf(3000, 400, 1.1, 25)
	for _, v := range []struct {
		name string
		mk   func() ztopo.TileIndex
	}{
		{"handcoded", func() ztopo.TileIndex { return ztopo.NewHandTileIndex() }},
		{"interpreted", func() ztopo.TileIndex {
			x, err := ztopo.NewSynthTileIndex(ztopo.DefaultTileDecomp())
			if err != nil {
				b.Fatal(err)
			}
			return x
		}},
		{"generated", func() ztopo.TileIndex { return ztopo.NewGenTileIndex() }},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store := ztopo.NewTileStore(1 << 10)
				viewer := ztopo.NewViewer(v.mk(), store, 64<<10, 256<<10)
				for _, id := range accesses {
					if _, err := viewer.Tile(id); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// §6.1 scheduler and cache micro-benchmarks.

func BenchmarkScheduler(b *testing.B) {
	ops := workload.SchedulerTrace(10_000, 4, 100, 17)
	for _, v := range []struct {
		name string
		d    func() *decomp.Decomp
	}{
		{"figure2", paperex.SchedulerDecomp},
		{"flat-avl", func() *decomp.Decomp {
			return decomp.MustNew([]decomp.Binding{
				decomp.Let("w", []string{"ns", "pid"}, []string{"state", "cpu"},
					decomp.U("state", "cpu")),
				decomp.Let("root", nil, []string{"ns", "pid", "state", "cpu"},
					decomp.M(dstruct.AVLKind, "w", "ns", "pid")),
			}, "root")
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := core.New(experiments.SchedulerSpec(), v.d())
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := experiments.RunSchedulerBench(r, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation 1 (DESIGN.md): the paper's optimistic join cost model vs the
// pessimistic variant — measure the actual execution cost of each
// planner's chosen plan for the scheduler's state query.

func BenchmarkPlannerAblation(b *testing.B) {
	r, err := core.New(experiments.SchedulerSpec(), paperex.SchedulerDecomp())
	if err != nil {
		b.Fatal(err)
	}
	for ns := int64(0); ns < 8; ns++ {
		for pid := int64(0); pid < 64; pid++ {
			if err := r.Insert(paperex.SchedulerTuple(ns, pid, (ns+pid)%2, pid)); err != nil {
				b.Fatal(err)
			}
		}
	}
	in := relation.NewCols("ns", "state")
	out := relation.NewCols("pid")
	pattern := relation.NewTuple(relation.BindInt("ns", 3), relation.BindInt("state", 1))

	for _, v := range []struct {
		name        string
		pessimistic bool
	}{
		{"optimistic", false},
		{"pessimistic", true},
	} {
		b.Run(v.name, func(b *testing.B) {
			pl := plan.NewPlanner(r.Decomp(), r.Spec().FDs, plan.MeasuredStats(r.Instance()))
			pl.Pessimistic = v.pessimistic
			cand, err := pl.Best(in, out)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			count := 0
			for i := 0; i < b.N; i++ {
				plan.Exec(r.Instance(), cand.Op, pattern, func(relation.Tuple) bool {
					count++
					return true
				})
			}
			if count == 0 {
				b.Fatal("query returned nothing")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation 3 (DESIGN.md): empty-map cleanup on removal (§4.5).

func BenchmarkRemoveCleanup(b *testing.B) {
	edges := workload.RoadNetwork(12, 7)
	for _, v := range []struct {
		name    string
		cleanup bool
	}{
		{"with-cleanup", true},
		{"without-cleanup", false},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r, err := core.New(experiments.GraphSpec(), paperex.GraphDecomp5())
				if err != nil {
					b.Fatal(err)
				}
				r.Instance().CleanupEmpty = v.cleanup
				for _, e := range edges {
					if err := r.Insert(paperex.EdgeTuple(e.Src, e.Dst, e.Weight)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, e := range edges {
					pat := relation.NewTuple(relation.BindInt("src", e.Src), relation.BindInt("dst", e.Dst))
					if _, err := r.Remove(pat); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation 2 (DESIGN.md): node sharing (decomposition 5 vs 9) — memory
// side: shared decompositions allocate fewer nodes for the same relation.

func BenchmarkSharingNodeCount(b *testing.B) {
	edges := workload.RoadNetwork(12, 7)
	for _, v := range []struct {
		name string
		d    func() *decomp.Decomp
	}{
		{"shared-decomp5", paperex.GraphDecomp5},
		{"unshared-decomp9", paperex.GraphDecomp9},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := core.New(experiments.GraphSpec(), v.d())
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range edges {
					if err := r.Insert(paperex.EdgeTuple(e.Src, e.Dst, e.Weight)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Instance().NodeCount()), "nodes")
			}
		})
	}
}

// TestBenchmarkScalesSanity keeps the reduced benchmark scales honest: the
// workloads must be big enough that the decomposition differences the
// figures rely on are visible.
func TestBenchmarkScalesSanity(t *testing.T) {
	edges := workload.RoadNetwork(benchGridN, 11)
	if len(edges) < 500 {
		t.Fatalf("bench graph too small: %d edges", len(edges))
	}
	r1, _, nodes := graphBenchRelation(t, paperex.GraphDecomp1())
	r5, _, _ := graphBenchRelation(t, paperex.GraphDecomp5())
	t1, err := experiments.RunGraphBench(r1, edges, nodes, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	t5, err := experiments.RunGraphBench(r5, edges, nodes, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	// Decomposition 1's backward phase is quadratic; 5's is linear. The
	// backward increment must be clearly larger for 1.
	back1 := t1.FB - t1.F
	back5 := t5.FB - t5.F
	if back1 < 2*back5 {
		t.Errorf("backward traversal: decomp1 %.4fs vs decomp5 %.4fs — quadratic/linear gap not visible", back1, back5)
	}
}

var _ = autotuner.ErrTimeout // the sweep benchmark relies on its semantics

// ---------------------------------------------------------------------------
// Range-query extension: ordered seek vs unordered filter on the same
// workload — the complexity gap the dstruct.Ranger fast path buys.

// BenchmarkQueryAllocs pins the allocation behaviour of the collect path:
// plan-cost-sized result maps and reused scratch buffers keep the steady
// state of keyed point queries and range queries at a handful of small
// allocations per op (the result tuples themselves).
func BenchmarkQueryAllocs(b *testing.B) {
	r, err := core.New(experiments.SchedulerSpec(), paperex.SchedulerDecomp())
	if err != nil {
		b.Fatal(err)
	}
	for pid := int64(0); pid < 512; pid++ {
		if err := r.Insert(paperex.SchedulerTuple(pid%4, pid, pid%2, pid)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("point", func(b *testing.B) {
		pat := relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 129))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := r.Query(pat, []string{"cpu"})
			if err != nil || len(res) != 1 {
				b.Fatalf("res=%v err=%v", res, err)
			}
		}
	})
	b.Run("range", func(b *testing.B) {
		pat := relation.NewTuple(relation.BindInt("ns", 1))
		lo, hi := value.OfInt(101), value.OfInt(141)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := r.QueryRange(pat, "pid", &lo, &hi, []string{"cpu"})
			if err != nil || len(res) != 11 {
				b.Fatalf("res=%d err=%v", len(res), err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Range-query extension: ordered seek vs unordered filter on the same
// workload — the complexity gap the dstruct.Ranger fast path buys.

func BenchmarkRangeQuery(b *testing.B) {
	mk := func(kind dstruct.Kind) *core.Relation {
		d := decomp.MustNew([]decomp.Binding{
			decomp.Let("w", []string{"ns", "pid"}, []string{"state", "cpu"},
				decomp.U("state", "cpu")),
			decomp.Let("y", []string{"ns"}, []string{"pid", "state", "cpu"},
				decomp.M(kind, "w", "pid")),
			decomp.Let("root", nil, []string{"ns", "pid", "state", "cpu"},
				decomp.M(dstruct.HTableKind, "y", "ns")),
		}, "root")
		r, err := core.New(experiments.SchedulerSpec(), d)
		if err != nil {
			b.Fatal(err)
		}
		for pid := int64(0); pid < 2000; pid++ {
			if err := r.Insert(paperex.SchedulerTuple(1, pid, pid%2, pid)); err != nil {
				b.Fatal(err)
			}
		}
		return r
	}
	lo, hi := value.OfInt(990), value.OfInt(1009)
	pat := relation.NewTuple(relation.BindInt("ns", 1))
	for _, v := range []struct {
		name string
		kind dstruct.Kind
	}{
		{"avl-seek", dstruct.AVLKind},
		{"skiplist-seek", dstruct.SkipListKind},
		{"dlist-filter", dstruct.DListKind},
	} {
		b.Run(v.name, func(b *testing.B) {
			r := mk(v.kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				err := r.QueryRangeFunc(pat, "pid", &lo, &hi, []string{"cpu"}, func(relation.Tuple) bool {
					n++
					return true
				})
				if err != nil || n != 20 {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
}
