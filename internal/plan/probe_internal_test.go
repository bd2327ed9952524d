package plan

import (
	"testing"

	"repro/internal/colblock"
	"repro/internal/dstruct"
	"repro/internal/instance"
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
