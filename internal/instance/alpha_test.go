package instance_test

import (
	"runtime"
	"testing"

	"repro/internal/decomp"
	"repro/internal/fd"
	"repro/internal/instance"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/systems/ipcap"
)

// TestAlphaIsLinear: α accumulates each map's union in place, so twice the
// tuples cost about twice the memory. Folding the union with the
// value-semantics relation.Union instead clones the accumulated relation
// once per map entry, which is quadratic; checkpoints and CheckInvariants
// both pay for α. The clones are few large allocations, so it is the bytes
// that show the square (4× for 2×), while the allocation count — held to
// the same bound — barely moves.
func TestAlphaIsLinear(t *testing.T) {
	cases := []struct {
		name  string
		dcmp  *decomp.Decomp
		fds   fd.Set
		tuple func(i int64) relation.Tuple
	}{
		// Four flows per local host, four out-edges per source: the root
		// maps grow with n, which is where the per-entry clone bites.
		{"flows", ipcap.DefaultFlowDecomp(), ipcap.FlowSpec().FDs, func(i int64) relation.Tuple {
			return relation.NewTuple(
				relation.BindInt("local", i/4), relation.BindInt("foreign", i%4),
				relation.BindInt("packets", i), relation.BindInt("bytes", i))
		}},
		{"graph", paperex.GraphDecomp5(), paperex.GraphFDs(), func(i int64) relation.Tuple {
			return relation.NewTuple(
				relation.BindInt("src", i/4), relation.BindInt("dst", (i/4+1+i%4)%1024),
				relation.BindInt("weight", i))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			alphaCost := func(n int64) (allocs, bytes float64) {
				in := instance.New(c.dcmp, c.fds)
				for i := int64(0); i < n; i++ {
					mustInsert(t, in, c.tuple(i))
				}
				if got := in.Relation().Len(); got != int(n) {
					t.Fatalf("α holds %d tuples, want %d", got, n)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				in.Relation()
				runtime.ReadMemStats(&after)
				return testing.AllocsPerRun(2, func() { in.Relation() }), float64(after.TotalAlloc - before.TotalAlloc)
			}
			const n = 2048
			allocs1, bytes1 := alphaCost(n)
			allocs2, bytes2 := alphaCost(2 * n)
			t.Logf("α of %d tuples: %.0f allocations, %.0f bytes; of %d: %.0f (%.2f×), %.0f (%.2f×)",
				n, allocs1, bytes1, 2*n, allocs2, allocs2/allocs1, bytes2, bytes2/bytes1)
			if allocs2 >= 3*allocs1 || bytes2 >= 3*bytes1 {
				t.Errorf("α is not linear: twice the tuples cost %.2f× the allocations and %.2f× the bytes", allocs2/allocs1, bytes2/bytes1)
			}
		})
	}
}
