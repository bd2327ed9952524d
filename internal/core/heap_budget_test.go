package core_test

import (
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/relation"
	"repro/internal/workload"
)

// heapAlloc is the live heap, measured the way the benchmark's
// heap_bytes_per_tuple is (bench/e2e.go): two collections, because what a
// sync.Pool held survives one in the pool's victim cache.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBytesPerTupleBudget holds the representation to a budget: for each of
// the benchmark's three decompositions, built at budgetTuples tuples on the
// bare tier, the live heap per tuple must stay under a ceiling set 10% above
// what the representation measured when a small list moved into its header, and
// Instance.Stats — counts of objects times their allocated sizes — must
// account for that heap to within 15%. A representation regression fails here, in tier 1, with the
// category that grew in the log, instead of waiting for a benchmark run.
// `make heap-budget` prints the table.
func TestBytesPerTupleBudget(t *testing.T) {
	const budgetTuples = 20000
	rnd := rand.New(rand.NewSource(1))
	ints := func(cols []string, rows [][]int64) []relation.Tuple {
		out := make([]relation.Tuple, len(rows))
		for i, r := range rows {
			bs := make([]relation.Binding, len(cols))
			for j, c := range cols {
				bs[j] = relation.BindInt(c, r[j])
			}
			out[i] = relation.NewTuple(bs...)
		}
		return out
	}
	var flows, procs, edges [][]int64
	for i := 0; i < budgetTuples; i++ {
		// The benchmark's shapes (bench/gen.go): flows over 255 local hosts
		// with a foreign host each, processes over 64 namespaces and the two
		// states.
		flows = append(flows, []int64{int64(rnd.Intn(255)), int64(1<<20 + i), int64(1 + rnd.Intn(1000)), int64(1 + rnd.Intn(1_000_000))})
		procs = append(procs, []int64{int64(rnd.Intn(64)), int64(i), int64(rnd.Intn(2)), int64(rnd.Intn(1000))})
	}
	for _, e := range workload.RoadNetwork(75, 1)[:budgetTuples] {
		edges = append(edges, []int64{e.Src, e.Dst, e.Weight})
	}
	for _, tc := range []struct {
		file, rel, decomp string
		tuples            []relation.Tuple
		ceiling           float64 // bytes per tuple: 63.9, 119.0 and 81.5 measured (118.1 and 82.0 with lists in variable-length chunks, 151.3 for graphedges with every list chunked, 112.4, 224.9 and 130.3 with 64-byte node headers, 128.8, 233.5 and 147.5 with chained hash tables, 354, 541 and 451 boxed), plus 10%
	}{
		{"flows.rel", "flows", "flows", ints([]string{"local", "foreign", "packets", "bytes"}, flows), 71},
		{"graphedges.rel", "graphedges", "graphedges", ints([]string{"src", "dst", "weight"}, edges), 130},
		{"scheduler.rel", "processes", "processes", ints([]string{"ns", "pid", "state", "cpu"}, procs), 91},
	} {
		src, err := os.ReadFile("../../spec/" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		f, err := dsl.ParseFile("spec/"+tc.file, string(src))
		if err != nil {
			t.Fatal(err)
		}
		heap0 := heapAlloc()
		r, err := core.New(f.Relation(tc.rel), f.Decomp(tc.decomp).D)
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range tc.tuples {
			if err := r.Insert(tup); err != nil {
				t.Fatalf("%s: insert %v: %v", tc.decomp, tup, err)
			}
		}
		heap := float64(heapAlloc() - heap0)
		st := r.Instance().Stats()
		runtime.KeepAlive(tc.tuples)
		n := float64(r.Len())
		t.Logf("%-10s %6.1f B/tuple measured | Stats %6.1f = node headers %5.1f + unit words %5.1f + container entries %5.1f + container overhead %5.1f + dictionary %4.1f | %d nodes",
			tc.decomp, heap/n, float64(st.Bytes())/n, float64(st.NodeHeaders)/n, float64(st.UnitWords)/n,
			float64(st.ContainerEntries)/n, float64(st.ContainerOverhead)/n, float64(st.Dictionary)/n, st.Nodes)
		if heap/n > tc.ceiling {
			t.Errorf("%s: %.1f B of live heap per tuple, budget %.0f", tc.decomp, heap/n, tc.ceiling)
		}
		if got := float64(st.Bytes()); got < 0.85*heap || got > 1.15*heap {
			t.Errorf("%s: Stats accounts for %.0f B of a %.0f B heap (%.0f%%), want within 15%%", tc.decomp, got, heap, 100*got/heap)
		}
	}
}
