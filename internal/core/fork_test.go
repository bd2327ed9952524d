package core

import (
	"runtime"
	"testing"

	"repro/internal/race"
)

// TestForkAllocatesTwoHeaders: the MVCC tiers fork the relation once per
// write, and the fork is two shallow copies — the Relation and the Instance
// header — with every table, the dictionary and the writer's scratch shared
// with the version it forks.
func TestForkAllocatesTwoHeaders(t *testing.T) {
	r := newSchedInternal(t)
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	var fork *Relation
	if allocs := testing.AllocsPerRun(100, func() { fork = r.beginVersion() }); allocs != 2 {
		t.Fatalf("beginVersion makes %.0f allocations, want 2", allocs)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		fork = r.beginVersion()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / n; b > 200 {
		t.Fatalf("beginVersion allocates %d bytes, want at most 200", b)
	} else {
		t.Logf("beginVersion allocates %d bytes in 2 objects", b)
	}
	if fork.inst.Version() != r.inst.Version()+1 {
		t.Fatalf("fork is version %d of a relation at %d", fork.inst.Version(), r.inst.Version())
	}
}
