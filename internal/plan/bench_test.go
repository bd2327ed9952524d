package plan_test

import (
	"testing"

	"repro/internal/instance"
	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// benchGraph builds a graph5 instance with n×fan edges: n sources with fan
// successors each. Scan-heavy queries over it are the shape the compiled
// tier exists to accelerate.
func benchGraph(b testing.TB, n, fan int) *instance.Instance {
	b.Helper()
	in := instance.New(paperex.GraphDecomp5(), paperex.GraphFDs())
	for src := 0; src < n; src++ {
		for i := 0; i < fan; i++ {
			if _, err := in.Insert(paperex.EdgeTuple(int64(src), int64((src+i+1)%n), int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	}
	return in
}

// benchPlan picks the best plan for input → output and compiles it; the
// interpreted and compiled benchmarks below run the identical plan tree.
func benchPlan(b *testing.B, in *instance.Instance, input, output relation.Cols) (*plan.Candidate, *plan.Program) {
	b.Helper()
	pl := plan.NewPlanner(in.Decomp(), in.FDs(), plan.MeasuredStats(in))
	cand, err := pl.Best(input, output)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := plan.Compile(in, cand.Op, input, output)
	if err != nil {
		b.Fatal(err)
	}
	return cand, prog
}

// Every leg consumes its output identically — decode and sum every cell
// (sumTuple for the row tiers, sumBatch for the batch tier) — so the
// measured deltas are the execution model, not skipped consumption, and
// the consuming loop cannot be dead-code-eliminated.

// sumTuple decodes and sums every cell of a streamed row; the row-tier
// counterpart of sumBatch below.
func sumTuple(t relation.Tuple) int64 {
	var sum int64
	for j := 0; j < t.Len(); j++ {
		i, _ := t.ValueAt(j).AsInt()
		sum += i
	}
	return sum
}

// The forward-scan shape: fixed src, scan its successor list, emit
// (dst, weight) — Figure 11's F benchmark inner loop.

func BenchmarkScanInterpreted(b *testing.B) {
	in := benchGraph(b, 64, 64)
	input, output := cols("src"), cols("dst", "weight")
	cand, _ := benchPlan(b, in, input, output)
	pat := relation.NewTuple(relation.BindInt("src", 7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, sum := 0, int64(0)
		plan.Exec(in, cand.Op, pat, func(t relation.Tuple) bool {
			n++
			sum += sumTuple(t)
			return true
		})
		if n != 64 || sum == 0 {
			b.Fatalf("scan saw %d rows, sum %d", n, sum)
		}
	}
}

func BenchmarkScanCompiled(b *testing.B) {
	in := benchGraph(b, 64, 64)
	input, output := cols("src"), cols("dst", "weight")
	_, prog := benchPlan(b, in, input, output)
	pat := relation.NewTuple(relation.BindInt("src", 7))
	n, sum := 0, int64(0)
	f := func(t relation.Tuple) bool {
		n++
		sum += sumTuple(t)
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, sum = 0, 0
		prog.StreamView(in, pat, f)
		if n != 64 || sum == 0 {
			b.Fatalf("scan saw %d rows, sum %d", n, sum)
		}
	}
}

// The full-enumeration shape: no input, traverse everything and emit all
// three columns. On graph5 the best plan is a nested scan (src, then dst).

func BenchmarkEnumerateInterpreted(b *testing.B) {
	in := benchGraph(b, 64, 32)
	input, output := cols(), cols("src", "dst", "weight")
	cand, _ := benchPlan(b, in, input, output)
	pat := relation.NewTuple()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, sum := 0, int64(0)
		plan.Exec(in, cand.Op, pat, func(t relation.Tuple) bool {
			n++
			sum += sumTuple(t)
			return true
		})
		if n != 64*32 || sum == 0 {
			b.Fatalf("enumeration saw %d rows, sum %d", n, sum)
		}
	}
}

func BenchmarkEnumerateCompiled(b *testing.B) {
	in := benchGraph(b, 64, 32)
	input, output := cols(), cols("src", "dst", "weight")
	_, prog := benchPlan(b, in, input, output)
	pat := relation.NewTuple()
	n, sum := 0, int64(0)
	f := func(t relation.Tuple) bool {
		n++
		sum += sumTuple(t)
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, sum = 0, 0
		prog.StreamView(in, pat, f)
		if n != 64*32 || sum == 0 {
			b.Fatalf("enumeration saw %d rows, sum %d", n, sum)
		}
	}
}

// The join shape: the scheduler's 〈ns, state〉 → {pid} query of §4.1, whose
// best plan under measured stats joins both sides of the root.

func schedJoinBench(b *testing.B) (*instance.Instance, relation.Tuple, relation.Cols, relation.Cols) {
	b.Helper()
	in := instance.New(paperex.SchedulerDecomp(), paperex.SchedulerFDs())
	for ns := 0; ns < 16; ns++ {
		for pid := 0; pid < 32; pid++ {
			state := paperex.StateS
			if pid%4 == 0 {
				state = paperex.StateR
			}
			if _, err := in.Insert(paperex.SchedulerTuple(int64(ns), int64(pid), state, int64(pid))); err != nil {
				b.Fatal(err)
			}
		}
	}
	pat := relation.NewTuple(relation.BindInt("ns", 7), relation.BindInt("state", paperex.StateR))
	return in, pat, cols("ns", "state"), cols("pid")
}

func BenchmarkJoinInterpreted(b *testing.B) {
	in, pat, input, output := schedJoinBench(b)
	cand, _ := benchPlan(b, in, input, output)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, sum := 0, int64(0)
		plan.Exec(in, cand.Op, pat, func(t relation.Tuple) bool {
			n++
			sum += sumTuple(t)
			return true
		})
		if n != 8 || sum == 0 {
			b.Fatalf("join saw %d rows, sum %d", n, sum)
		}
	}
}

func BenchmarkJoinCompiled(b *testing.B) {
	in, pat, input, output := schedJoinBench(b)
	_, prog := benchPlan(b, in, input, output)
	n, sum := 0, int64(0)
	f := func(t relation.Tuple) bool {
		n++
		sum += sumTuple(t)
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, sum = 0, 0
		prog.StreamView(in, pat, f)
		if n != 8 || sum == 0 {
			b.Fatalf("join saw %d rows, sum %d", n, sum)
		}
	}
}

// The Collect shape: dedup + materialization included, as Relation.Query
// runs it. Compiled Collect fuses projection and dedup into the emit loop.

func BenchmarkCollectInterpreted(b *testing.B) {
	in := benchGraph(b, 64, 64)
	input, output := cols("src"), cols("dst")
	cand, _ := benchPlan(b, in, input, output)
	pat := relation.NewTuple(relation.BindInt("src", 7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := plan.CollectSized(in, cand.Op, pat, output, cand.EstimatedRows())
		if len(res) != 64 {
			b.Fatalf("collect saw %d rows", len(res))
		}
	}
}

// The vectorized legs run the identical plan tree through CompileBatch and
// consume every output cell exactly like the row tiers above.

// benchBatch compiles the candidate's plan for the batch tier.
func benchBatch(b *testing.B, in *instance.Instance, cand *plan.Candidate, input, output relation.Cols) *plan.BatchProgram {
	b.Helper()
	bp, err := plan.CompileBatch(in, cand.Op, input, output)
	if err != nil {
		b.Fatal(err)
	}
	return bp
}

// sumBatch decodes and sums every output cell of br.
func sumBatch(br *plan.BatchResult) int64 {
	var sum int64
	d := br.View()
	for j := 0; j < br.NumCols(); j++ {
		for _, c := range br.Col(j) {
			i, _ := d.Decode(c).AsInt()
			sum += i
		}
	}
	return sum
}

func BenchmarkScanVectorized(b *testing.B) {
	in := benchGraph(b, 64, 64)
	input, output := cols("src"), cols("dst", "weight")
	cand, _ := benchPlan(b, in, input, output)
	bp := benchBatch(b, in, cand, input, output)
	pat := relation.NewTuple(relation.BindInt("src", 7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, ok := bp.Run(in, pat)
		if !ok {
			b.Fatal("batch run bailed")
		}
		sum := sumBatch(br)
		n := br.Rows()
		br.Release()
		if n != 64 || sum == 0 {
			b.Fatalf("scan saw %d rows, sum %d", n, sum)
		}
	}
}

func BenchmarkEnumerateVectorized(b *testing.B) {
	in := benchGraph(b, 64, 32)
	input, output := cols(), cols("src", "dst", "weight")
	cand, _ := benchPlan(b, in, input, output)
	bp := benchBatch(b, in, cand, input, output)
	pat := relation.NewTuple()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, ok := bp.Run(in, pat)
		if !ok {
			b.Fatal("batch run bailed")
		}
		sum := sumBatch(br)
		n := br.Rows()
		br.Release()
		if n != 64*32 || sum == 0 {
			b.Fatalf("enumeration saw %d rows, sum %d", n, sum)
		}
	}
}

func BenchmarkJoinVectorized(b *testing.B) {
	in, pat, input, output := schedJoinBench(b)
	cand, _ := benchPlan(b, in, input, output)
	bp := benchBatch(b, in, cand, input, output)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, ok := bp.Run(in, pat)
		if !ok {
			b.Fatal("batch run bailed")
		}
		sum := sumBatch(br)
		n := br.Rows()
		br.Release()
		if n != 8 || sum == 0 {
			b.Fatalf("join saw %d rows, sum %d", n, sum)
		}
	}
}

func BenchmarkCollectVectorized(b *testing.B) {
	in := benchGraph(b, 64, 64)
	input, output := cols("src"), cols("dst")
	cand, _ := benchPlan(b, in, input, output)
	bp := benchBatch(b, in, cand, input, output)
	pat := relation.NewTuple(relation.BindInt("src", 7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, ok := bp.Run(in, pat)
		if !ok {
			b.Fatal("batch run bailed")
		}
		res := br.Collect()
		br.Release()
		if len(res) != 64 {
			b.Fatalf("collect saw %d rows", len(res))
		}
	}
}

func BenchmarkCollectCompiled(b *testing.B) {
	in := benchGraph(b, 64, 64)
	input, output := cols("src"), cols("dst")
	cand, prog := benchPlan(b, in, input, output)
	pat := relation.NewTuple(relation.BindInt("src", 7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := prog.Collect(in, pat, cand.EstimatedRows())
		if len(res) != 64 {
			b.Fatalf("collect saw %d rows", len(res))
		}
	}
}

// The duplicate-heavy collect: 30,720 edges projected onto dst alone leave
// 1,024 distinct rows — the direction in which a dedup that boxed or sorted
// every row before discarding it would lose (DESIGN.md ablation 13).
func BenchmarkCollectDupVectorized(b *testing.B) {
	in := benchGraph(b, 1024, 30)
	input, output := cols(), cols("dst")
	cand, _ := benchPlan(b, in, input, output)
	bp := benchBatch(b, in, cand, input, output)
	pat := relation.NewTuple()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, ok := bp.Run(in, pat)
		if !ok {
			b.Fatal("batch run bailed")
		}
		res := br.Collect()
		br.Release()
		if len(res) != 1024 {
			b.Fatalf("collect saw %d rows", len(res))
		}
	}
}

// The range shape: no pattern, src within a two-source interval, (dst,
// weight) collected — flows-read's QueryRange in miniature: a seek on the
// ordered root, then a fan-out over two successor lists.

func rangeBench(b *testing.B) (*instance.Instance, *plan.Candidate, relation.Cols, plan.Range) {
	in := benchGraph(b, 64, 64)
	cand, _ := benchPlan(b, in, cols(), cols("src", "dst", "weight"))
	rg := plan.Range{Col: "src", Lo: value.OfInt(7), HasLo: true, Hi: value.OfInt(8), HasHi: true}
	return in, cand, cols("dst", "weight"), rg
}

func BenchmarkRangeInterpreted(b *testing.B) {
	in, cand, output, rg := rangeBench(b)
	pat := relation.NewTuple()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := plan.CollectFunc(func(emit func(relation.Tuple) bool) {
			plan.ExecRange(in, cand.Op, pat, rg, emit)
		}, output, cand.EstimatedRows())
		if len(res) != 128 {
			b.Fatalf("range saw %d rows", len(res))
		}
	}
}

func BenchmarkRangeVectorized(b *testing.B) {
	in, cand, output, rg := rangeBench(b)
	bp, err := plan.CompileBatchRange(in, cand.Op, cols(), output, rg.Col)
	if err != nil {
		b.Fatal(err)
	}
	pat := relation.NewTuple()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, ok := bp.RunRange(in, pat, rg)
		if !ok {
			b.Fatal("batch run bailed")
		}
		res := br.Collect()
		br.Release()
		if len(res) != 128 {
			b.Fatalf("range saw %d rows", len(res))
		}
	}
}
