package instance

import (
	"testing"

	"repro/internal/colblock"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/fd"
	"repro/internal/race"
	"repro/internal/relation"
)

// flowsDecomp is spec/flows.rel's flows decomposition: an AVL tree of local
// hosts to hash tables of foreign hosts to a two-column stats leaf.
func flowsDecomp() (*decomp.Decomp, fd.Set) {
	d := decomp.MustNew([]decomp.Binding{
		decomp.Let("stats", []string{"local", "foreign"}, []string{"packets", "bytes"}, decomp.U("packets", "bytes")),
		decomp.Let("perlocal", []string{"local"}, []string{"foreign", "packets", "bytes"},
			decomp.M(dstruct.HTableKind, "stats", "foreign")),
		decomp.Let("root", nil, []string{"local", "foreign", "packets", "bytes"},
			decomp.M(dstruct.AVLKind, "perlocal", "local")),
	}, "root")
	return d, fd.NewSet(fd.FD{From: relation.NewCols("local", "foreign"), To: relation.NewCols("packets", "bytes")})
}

func flowTuple(local, foreign, packets, bytes int64) relation.Tuple {
	return relation.NewTuple(relation.BindInt("local", local), relation.BindInt("foreign", foreign),
		relation.BindInt("packets", packets), relation.BindInt("bytes", bytes))
}

// TestNodeAllocations pins what a node costs the allocator: one object,
// header, unit words and containers together. A node whose words or
// containers live apart from its header costs two.
func TestNodeAllocations(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	d, fds := flowsDecomp()
	in := New(d, fds)
	for f := int64(0); f < 64; f++ {
		if ok, err := in.Insert(flowTuple(1, f, 1, 1)); !ok || err != nil {
			t.Fatalf("seed insert: ok=%v err=%v", ok, err)
		}
	}

	// A bare insert that adds one stats leaf under an existing perlocal node
	// allocates the leaf and nothing else; removing the same tuple allocates
	// nothing, so the pair's count is the insert's.
	leaf := flowTuple(1, 1000, 7, 7)
	got := testing.AllocsPerRun(100, func() {
		if ok, err := in.Insert(leaf); !ok || err != nil {
			t.Fatalf("insert: ok=%v err=%v", ok, err)
		}
		if ok, err := in.RemoveTuple(leaf); !ok || err != nil {
			t.Fatalf("remove: ok=%v err=%v", ok, err)
		}
	})
	if got != 1 {
		t.Errorf("inserting a flows leaf under an existing perlocal allocated %v objects, want 1", got)
	}

	// A copy-on-write update of a leaf clones it into one object.
	code := func(v int64) colblock.Code { c, _ := colblock.InlineInt(v); return c }
	perlocal, ok := in.root.Map(0).Get1(in.view, code(1))
	if !ok {
		t.Fatal("no perlocal node for local 1")
	}
	stats, ok := perlocal.Map(0).Get1(in.view, code(5))
	if !ok {
		t.Fatal("no stats node for foreign 5")
	}
	fork := in.BeginVersion()
	if got := testing.AllocsPerRun(100, func() { fork.cowNode(stats) }); got != 1 {
		t.Errorf("cloning a flows leaf allocated %v objects, want 1", got)
	}
}
