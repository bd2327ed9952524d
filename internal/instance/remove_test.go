package instance

import (
	"testing"

	"repro/internal/colblock"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/fd"
	"repro/internal/paperex"
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

// TestRemoveLooksEachInEdgeUpOnce pins the remove path's search count on the
// scheduler decomposition, whose z→w edge is a list: planning locates each
// node above the cut through one in-edge lookup, and the apply pass unlinks
// each in-edge entry with one Delete that hands back the child — no Get
// before it. Per removed tuple that is at most two lookups on any one
// container, plan and apply together (it was a Get in the plan, then a Get
// and a Delete in the apply: three scans of the same list).
func TestRemoveLooksEachInEdgeUpOnce(t *testing.T) {
	in := New(paperex.SchedulerDecomp(), paperex.SchedulerFDs())
	for pid := int64(1); pid <= 40; pid++ {
		if ok, err := in.Insert(paperex.SchedulerTuple(1, pid, pid%2, pid)); err != nil || !ok {
			t.Fatalf("insert %d: %v, %v", pid, ok, err)
		}
	}
	// Wrap every container in place; nodes are visited before their children
	// are reached through the wrapped maps.
	counts := map[string]*int{}
	var wrap func(n *Node)
	wrap = func(n *Node) {
		for i, m := range n.maps {
			if _, done := m.(countingWords); done {
				continue
			}
			e := in.layouts[n.vi].edges[i]
			name := e.Parent + "→" + e.Target
			if counts[name] == nil {
				counts[name] = new(int)
			}
			n.maps[i] = countingWords{m, counts[name]}
			m.Range(func(_ []colblock.Code, child *Node) bool {
				wrap(child)
				return true
			})
		}
	}
	wrap(in.root)
	for _, tc := range []struct {
		name string
		pid  int64
	}{
		{"a tuple among many", 7},
		{"another", 20},
	} {
		victim := paperex.SchedulerTuple(1, tc.pid, tc.pid%2, tc.pid)
		if !in.Contains(victim) {
			t.Fatalf("%s: fixture lost %v", tc.name, victim)
		}
		for _, c := range counts {
			*c = 0
		}
		if err := in.planRemove(victim); err != nil {
			t.Fatal(err)
		}
		if err := in.applyRemove(); err != nil {
			t.Fatal(err)
		}
		for edge, c := range counts {
			if *c > 2 {
				t.Errorf("%s: %d lookups on %s containers for one removed tuple, want at most 2", tc.name, *c, edge)
			}
		}
		if got := *counts["z→w"]; got != 1 {
			t.Errorf("%s: the list edge z→w was searched %d times by plan and apply, want once (the Delete)", tc.name, got)
		}
		if in.Contains(victim) {
			t.Fatalf("%s: %v still present", tc.name, victim)
		}
	}
	if err := in.CheckWF(); err != nil {
		t.Fatal(err)
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
