package plan

import (
	"testing"

	"repro/internal/colblock"
	"repro/internal/dstruct"
	"repro/internal/instance"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// TestProbeTableSpreadsConsecutiveKeys builds the lookup stages' inverted
// probe table over a list of 1,024 consecutive integer keys — the shape of a
// run-queue or an adjacency list — and walks it the way probeGet1 does.
// Consecutive inline codes differ only above the constant tag bit, and a
// fold that kept that parity would leave every other slot of the table
// unreachable (an effective load factor of 1, not ½): both parities must be
// home slots, and a probe must take two steps or fewer on average.
func TestProbeTableSpreadsConsecutiveKeys(t *testing.T) {
	const n = 1024
	var vw colblock.View
	m := dstruct.NewWords[*instance.Node](dstruct.DListKind, 1)
	for i := int64(0); i < n; i++ {
		c, _ := colblock.InlineInt(i)
		m.Put(vw, []colblock.Code{c}, &instance.Node{})
	}
	st := &batchState{}
	st.buildProbe(m, 1)
	if len(st.ptab) != 2*n {
		t.Fatalf("probe table has %d slots for %d entries, want load factor ½", len(st.ptab), n)
	}
	mask := uint64(len(st.ptab) - 1)
	parity := [2]int{}
	steps := 0
	for e, c := range st.eks {
		home := colblock.Hash1(c) & mask
		parity[home&1]++
		for idx := home; ; idx = (idx + 1) & mask {
			steps++
			if int(st.ptab[idx])-1 == e {
				break
			}
			if st.ptab[idx] == 0 {
				t.Fatalf("key %d is not reachable from its home slot", e)
			}
		}
		if child, ok := st.probeGet1(c); !ok || child != st.ens[e] {
			t.Fatalf("probeGet1 missed key %d", e)
		}
	}
	if parity[0] == 0 || parity[1] == 0 {
		t.Fatalf("home slots by parity %v: half the table is unused", parity)
	}
	if avg := float64(steps) / n; avg > 2 {
		t.Fatalf("a probe takes %.2f steps on average, want at most 2", avg)
	}
	absent, _ := colblock.InlineInt(n + 7)
	if _, ok := st.probeGet1(absent); ok {
		t.Fatal("probeGet1 found a key the list does not hold")
	}
}

// TestReleasedStateHoldsNoNodes runs every batch program of both corpus
// fixtures on a hit and then on a miss and looks at the state each run gives
// back to the pool: no node slice may hold a node anywhere in its capacity.
// A lookup that misses cuts the frontier to zero rows with the root behind
// the slice's length, and a root left there keeps a closed relation's every
// node alive for as long as sync.Pool keeps the state (two collections):
// long enough to double the collector's heap goal and move every timing of
// a process that opens relations one after the other.
func TestReleasedStateHoldsNoNodes(t *testing.T) {
	fixtures := []struct {
		in  *instance.Instance
		gen func(a, b, c, d int64) relation.Tuple
	}{
		{instance.New(paperex.SchedulerDecomp(), paperex.SchedulerFDs()),
			func(a, b, c, d int64) relation.Tuple { return paperex.SchedulerTuple(a, b, paperex.StateR+c%2, d) }},
		{instance.New(paperex.GraphDecomp5(), paperex.GraphFDs()),
			func(a, b, c, _ int64) relation.Tuple { return paperex.EdgeTuple(a, b, c) }},
	}
	for _, fx := range fixtures {
		in := fx.in
		for i := int64(0); i < 24; i++ {
			if _, err := in.Insert(fx.gen(i%3, i, i%2, i%5)); err != nil {
				t.Fatal(err)
			}
		}
		hit, miss := fx.gen(1, 4, 0, 4), fx.gen(77, 78, 1, 79)
		pl := NewPlanner(in.Decomp(), in.FDs(), MeasuredStats(in))
		names := in.Decomp().Cols().Names()
		checked := 0
		for mask := 0; mask < 1<<len(names); mask++ {
			var sub []string
			for i, n := range names {
				if mask&(1<<i) != 0 {
					sub = append(sub, n)
				}
			}
			input := relation.NewCols(sub...)
			for _, cand := range pl.All(input) {
				out, err := Check(in.Decomp(), in.FDs(), cand.Op, input)
				if err != nil {
					continue
				}
				bp, err := CompileBatch(in, cand.Op, input, out)
				if err != nil {
					t.Fatalf("plan %s: %v", cand.Op, err)
				}
				for _, pat := range []relation.Tuple{hit.Project(input), miss.Project(input)} {
					br, ok := bp.Run(in, pat)
					if !ok {
						t.Fatalf("plan %s bailed", cand.Op)
					}
					st := br.st
					br.Release()
					slices := [][]*instance.Node{st.cur.node, st.nxt.node, st.ens}
					slices = append(append(slices, st.cur.jn...), st.nxt.jn...)
					for _, s := range slices {
						for i, n := range s[:cap(s)] {
							if n != nil {
								t.Fatalf("plan %s on %v: a released state holds a node at %d of %d (length %d)", cand.Op, pat, i, cap(s), len(s))
							}
						}
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatal("no batch program was run")
		}
	}
}
