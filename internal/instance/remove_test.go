package instance

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/colblock"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/fd"
	"repro/internal/paperex"
	"repro/internal/race"
	"repro/internal/relation"
)

// countingWords counts the key lookups a container answers: every Get, Get1
// and Delete is one search for a key — on a list edge, one scan.
type countingWords struct {
	dstruct.Words[*Node]
	lookups *int
}

func (c countingWords) Get(vw colblock.View, k []colblock.Code) (*Node, bool) {
	*c.lookups++
	return c.Words.Get(vw, k)
}

func (c countingWords) Get1(vw colblock.View, k colblock.Code) (*Node, bool) {
	*c.lookups++
	return c.Words.Get1(vw, k)
}

func (c countingWords) Delete(vw colblock.View, k []colblock.Code) (*Node, bool) {
	*c.lookups++
	return c.Words.Delete(vw, k)
}

// countLookups wraps every container reachable from the root in a
// countingWords, one counter per edge named parent→target, and returns the
// counters. Calling it again wraps the containers nodes allocated since.
func countLookups(in *Instance, counts map[string]*int) {
	var wrap func(n *Node)
	wrap = func(n *Node) {
		for i, m := range n.maps() {
			if _, done := m.(countingWords); !done {
				e := in.layouts[n.vi].edges[i]
				name := e.Parent + "→" + e.Target
				if counts[name] == nil {
					counts[name] = new(int)
				}
				n.maps()[i] = countingWords{m, counts[name]}
			}
			m.Range(func(_ []colblock.Code, child *Node) bool {
				wrap(child)
				return true
			})
		}
	}
	wrap(in.root)
}

func zeroCounts(counts map[string]*int) {
	for _, c := range counts {
		*c = 0
	}
}

// TestRemoveLooksEachInEdgeUpOnce pins the remove path's search count on the
// scheduler decomposition, whose z→w edge is a list. RemoveTuple's one walk
// is both the containment check and the plan: it searches every edge's
// container once, and the apply pass unlinks each crossing edge's entry with
// one Delete that hands back the child — no Get before it. Per removed tuple
// that is at most two lookups on any one container, check, plan and apply
// together, and exactly two on z→w (the check and the Delete). It was a
// containment walk, a Get in the plan and a Delete: three scans of the same
// list.
func TestRemoveLooksEachInEdgeUpOnce(t *testing.T) {
	in := New(paperex.SchedulerDecomp(), paperex.SchedulerFDs())
	for pid := int64(1); pid <= 40; pid++ {
		if ok, err := in.Insert(paperex.SchedulerTuple(1, pid, pid%2, pid)); err != nil || !ok {
			t.Fatalf("insert %d: %v, %v", pid, ok, err)
		}
	}
	counts := map[string]*int{}
	countLookups(in, counts)
	for _, tc := range []struct {
		name string
		pid  int64
	}{
		{"a tuple among many", 7},
		{"another", 20},
	} {
		victim := paperex.SchedulerTuple(1, tc.pid, tc.pid%2, tc.pid)
		zeroCounts(counts)
		if ok, err := in.RemoveTuple(victim); err != nil || !ok {
			t.Fatalf("%s: remove: %v, %v", tc.name, ok, err)
		}
		for edge, c := range counts {
			if *c > 2 {
				t.Errorf("%s: %d lookups on %s containers for one removed tuple, want at most 2", tc.name, *c, edge)
			}
		}
		if got := *counts["z→w"]; got != 2 {
			t.Errorf("%s: the list edge z→w was searched %d times, want twice (the check and the Delete)", tc.name, got)
		}
		if in.Contains(victim) {
			t.Fatalf("%s: %v still present", tc.name, victim)
		}
	}
	if err := in.CheckWF(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertLooksEachEdgeUpOnce pins the insert path's search count: the
// plan's walk and its link phase share one search per edge, and the plan
// is the duplicate check, so inserting a tuple — new, sharing nodes with
// stored ones, or already present — searches each container at most once.
// On the scheduler decomposition the z→w list was scanned twice per insert
// (the walk located w through y→w first, then the link phase looked z→w up
// again), and three times for a duplicate.
func TestInsertLooksEachEdgeUpOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   *Instance
		tup  func(i int64) relation.Tuple
	}{
		{"processes", New(paperex.SchedulerDecomp(), paperex.SchedulerFDs()), func(i int64) relation.Tuple {
			return paperex.SchedulerTuple(i%3, i, i%2, i)
		}},
		{"graphedges", New(paperex.GraphDecomp5(), paperex.GraphFDs()), func(i int64) relation.Tuple {
			return paperex.EdgeTuple(i%5, i%7, i)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in
			counts := map[string]*int{}
			check := func(what string, i int64, want bool) {
				countLookups(in, counts)
				zeroCounts(counts)
				if ok, err := in.Insert(tc.tup(i)); err != nil || ok != want {
					t.Fatalf("%s %d: %v, %v", what, i, ok, err)
				}
				for edge, c := range counts {
					if *c > 1 {
						t.Errorf("%s %d: %d lookups on %s containers, want at most 1", what, i, *c, edge)
					}
				}
			}
			for i := int64(0); i < 30; i++ {
				check("insert", i, true)
			}
			for i := int64(0); i < 30; i += 7 {
				check("duplicate", i, false)
			}
			if in.Len() != 30 {
				t.Fatalf("Len %d after 30 inserts", in.Len())
			}
			if err := in.CheckWF(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestForkIsAHeader: BeginVersion runs once per write on the MVCC tiers and
// copies the Instance it forks. Everything no fork changes lives in the
// lineage the copy points at, so the copy is a header that fits the 112-byte
// size class and the fork is that one allocation.
func TestForkIsAHeader(t *testing.T) {
	if got := unsafe.Sizeof(Instance{}); got > 112 {
		t.Fatalf("Instance is %d bytes, want at most 112", got)
	} else {
		t.Logf("Instance is %d bytes", got)
	}
	in := New(paperex.SchedulerDecomp(), paperex.SchedulerFDs())
	fork := in.BeginVersion()
	if fork.lineage != in.lineage || fork.ver != in.ver+1 || !fork.cow {
		t.Fatalf("fork does not share its predecessor's lineage, or is not its successor")
	}
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	if allocs := testing.AllocsPerRun(100, func() { fork = in.BeginVersion() }); allocs != 1 {
		t.Fatalf("BeginVersion makes %.0f allocations, want 1", allocs)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		fork = in.BeginVersion()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / n; b > 112 {
		t.Fatalf("BeginVersion allocates %d bytes, want at most 112", b)
	}
}

// TestEmptyUnit: a unit over no columns (a relation that is all key) holds
// no words; every mutation and the containment walk must pass over it.
func TestEmptyUnit(t *testing.T) {
	d := decomp.MustNew([]decomp.Binding{
		decomp.Let("w", []string{"a"}, nil, decomp.U()),
		decomp.Let("x", nil, []string{"a"}, decomp.M(dstruct.AVLKind, "w", "a")),
	}, "x")
	in := New(d, fd.NewSet())
	tup := func(a int64) relation.Tuple { return relation.NewTuple(relation.BindInt("a", a)) }
	for a := int64(0); a < 5; a++ {
		if ok, err := in.Insert(tup(a)); err != nil || !ok {
			t.Fatalf("insert %d: %v, %v", a, ok, err)
		}
	}
	if ok, err := in.Insert(tup(3)); err != nil || ok {
		t.Fatalf("re-insert: %v, %v", ok, err)
	}
	if ok, err := in.RemoveTuple(tup(2)); err != nil || !ok {
		t.Fatalf("remove: %v, %v", ok, err)
	}
	if in.Len() != 4 || in.Contains(tup(2)) || !in.Contains(tup(4)) {
		t.Fatalf("Len %d after 5 inserts and a remove", in.Len())
	}
	if err := in.CheckWF(); err != nil {
		t.Fatal(err)
	}
	if got := in.Relation().Len(); got != 4 {
		t.Fatalf("α has %d tuples", got)
	}
}
