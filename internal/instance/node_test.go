package instance

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/colblock"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/fd"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// TestCowCloneIsIsolated clones every node of three instances, writes every
// unit word of each clone and puts a new entry into each of its containers,
// and checks that the source nodes — their words, their containers'
// entries, the relation they represent — did not move. A clone that shared
// its source's words or containers would publish the fork's writes to the
// version readers still hold.
func TestCowCloneIsIsolated(t *testing.T) {
	flows, flowFDs := flowsDecomp()
	var flowTuples, edgeTuples []relation.Tuple
	for i := int64(0); i < 40; i++ {
		flowTuples = append(flowTuples, flowTuple(i%5, i, i+1, 2*i))
		edgeTuples = append(edgeTuples, paperex.EdgeTuple(i%7, (i*3)%11, i))
	}
	for _, tc := range []struct {
		name   string
		d      *decomp.Decomp
		fds    fd.Set
		tuples []relation.Tuple
	}{
		{"flows", flows, flowFDs, flowTuples},
		{"scheduler", paperex.SchedulerDecomp(), paperex.SchedulerFDs(), paperex.SchedulerRelation().All()},
		{"graph5", paperex.GraphDecomp5(), paperex.GraphFDs(), edgeTuples},
	} {
		in := New(tc.d, tc.fds)
		for _, tup := range tc.tuples {
			if _, err := in.Insert(tup); err != nil {
				t.Fatalf("%s: insert %v: %v", tc.name, tup, err)
			}
		}
		before := in.Relation()
		var nodes []*Node
		seen := map[*Node]bool{}
		var visit func(n *Node)
		visit = func(n *Node) {
			if seen[n] {
				return
			}
			seen[n] = true
			nodes = append(nodes, n)
			for _, m := range n.maps() {
				m.Range(func(_ []colblock.Code, child *Node) bool {
					visit(child)
					return true
				})
			}
		}
		visit(in.root)
		fork := in.BeginVersion()
		for _, n := range nodes {
			words, entries := nodeContents(n)
			c := fork.cowNode(n)
			for i := range c.words() {
				c.words()[i] = colblock.Code(0xc0de + i)
			}
			for i, m := range c.maps() {
				key := make([]colblock.Code, m.Arity())
				for j := range key {
					key[j], _ = colblock.InlineInt(int64(900 + i))
				}
				m.Put(fork.view, key, c)
			}
			gotWords, gotEntries := nodeContents(n)
			if !slices.Equal(gotWords, words) {
				t.Errorf("%s: writing %s's clone changed its words from %x to %x", tc.name, in.VarOf(n), words, gotWords)
			}
			if gotEntries != entries {
				t.Errorf("%s: writing %s's clone changed its containers from\n%s to\n%s", tc.name, in.VarOf(n), entries, gotEntries)
			}
		}
		if t.Failed() {
			return // an aliased container may now hold a cycle α would not leave
		}
		if after := in.Relation(); !after.Equal(before) {
			t.Errorf("%s: writing the clones changed the source's relation", tc.name)
		}
		if err := in.CheckWF(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// nodeContents copies n's unit words and prints its containers' entries.
func nodeContents(n *Node) ([]colblock.Code, string) {
	var b strings.Builder
	for i, m := range n.maps() {
		ks, vs := m.AppendEntries(nil, nil)
		fmt.Fprintf(&b, "map %d: %x → %v\n", i, ks, vs)
	}
	return slices.Clone(n.words()), b.String()
}

// TestCheckShapeRejectsOverWideUnit builds a variable with 256 unit columns,
// one more than a node header counts, and expects CheckShape to refuse it
// and New to panic rather than truncate the count.
func TestCheckShapeRejectsOverWideUnit(t *testing.T) {
	d, fds := wideDecomp(256)
	err := CheckShape(d)
	if err == nil || !strings.Contains(err.Error(), "256 unit columns") {
		t.Fatalf("CheckShape of a 256-column unit: %v", err)
	}
	func() {
		defer func() {
			if p := recover(); p == nil {
				t.Error("New accepted a 256-column unit")
			}
		}()
		New(d, fds)
	}()
	d, fds = wideDecomp(255)
	if err := CheckShape(d); err != nil {
		t.Fatalf("CheckShape of a 255-column unit: %v", err)
	}
	in := New(d, fds)
	if got := len(in.newNode(1).words()); got != 255 {
		t.Errorf("a 255-column leaf has %d words", got)
	}
}

// wideDecomp is a hash table keyed by column k over leaves holding a unit of
// width columns, with k determining them.
func wideDecomp(width int) (*decomp.Decomp, fd.Set) {
	cols := make([]string, width)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%03d", i)
	}
	d := decomp.MustNew([]decomp.Binding{
		decomp.Let("w", []string{"k"}, cols, decomp.U(cols...)),
		decomp.Let("x", nil, append([]string{"k"}, cols...), decomp.M(dstruct.HTableKind, "w", "k")),
	}, "x")
	return d, fd.NewSet(fd.FD{From: relation.NewCols("k"), To: relation.NewCols(cols...)})
}
