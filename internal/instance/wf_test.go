package instance

// White-box negative tests for CheckWF: each case corrupts a well-formed
// scheduler instance (Figure 2(a)) in one targeted way and asserts that the
// Figure 5 checker reports the violation with the expected diagnosis. The
// positive direction — mutations preserve well-formedness — is covered by
// the property tests and the fault-injection harness; these tests establish
// that the checker those suites rely on actually detects each class of
// corruption.

import (
	"strings"
	"testing"

	"repro/internal/colblock"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// wfFixture builds the scheduler instance holding (1,1,S,7) and (1,2,R,4)
// and returns it together with the shared unit node w for (ns=1, pid=1).
//
// Layout (preorder of each definition): the root x has the ns-keyed hash
// table to y as map 0 and the state-keyed vector to z as map 1; y has its
// pid-keyed hash table to w as map 0; z its (ns,pid)-keyed list to w as map
// 0; w its cpu unit at word 0.
func wfFixture(t *testing.T) (*Instance, *Node) {
	t.Helper()
	in := New(paperex.SchedulerDecomp(), paperex.SchedulerFDs())
	for _, tup := range []relation.Tuple{
		paperex.SchedulerTuple(1, 1, paperex.StateS, 7),
		paperex.SchedulerTuple(1, 2, paperex.StateR, 4),
	} {
		if ok, err := in.Insert(tup); err != nil || !ok {
			t.Fatalf("seed insert %v: ok=%v err=%v", tup, ok, err)
		}
	}
	if err := in.CheckWF(); err != nil {
		t.Fatalf("fixture not well-formed: %v", err)
	}
	y := mustChild(t, in, in.root, 0, 1)
	w := mustChild(t, in, y, 0, 1)
	return in, w
}

// codes is the key holding the given integers.
func codes(vs ...int64) []colblock.Code {
	k := make([]colblock.Code, len(vs))
	for i, v := range vs {
		k[i], _ = colblock.InlineInt(v)
	}
	return k
}

func mustChild(t *testing.T, in *Instance, n *Node, slot int, key ...int64) *Node {
	t.Helper()
	c, ok := n.Map(slot).Get(in.view, codes(key...))
	if !ok {
		t.Fatalf("no child of %s in map %d for key %v", in.VarOf(n), slot, key)
	}
	return c
}

func TestCheckWFDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, in *Instance, w *Node)
		want    string // substring of the CheckWF error
	}{
		{
			name: "refcount skew on a shared node",
			corrupt: func(t *testing.T, in *Instance, w *Node) {
				w.refs++
			},
			want: "has refcount",
		},
		{
			name: "nonzero root refcount",
			corrupt: func(t *testing.T, in *Instance, w *Node) {
				in.root.refs++
			},
			want: "root has refcount",
		},
		{
			name: "unit disagrees with its declared columns",
			corrupt: func(t *testing.T, in *Instance, w *Node) {
				w.words()[0] = colblock.Unset // the cpu unit binds nothing
			},
			want: "unit of w holds",
		},
		{
			name: "dangling edge with a wrong-domain key",
			corrupt: func(t *testing.T, in *Instance, w *Node) {
				y := mustChild(t, in, in.root, 0, 1)
				y.Map(0).Put(in.view, []colblock.Code{colblock.Unset}, w) // a key that binds no pid
				w.refs++                                                  // keep the refcount consistent so the key domain is the violation
			},
			want: "edge y→w has key",
		},
		{
			name: "dangling edge reaching a shared node with the wrong valuation",
			corrupt: func(t *testing.T, in *Instance, w *Node) {
				y := mustChild(t, in, in.root, 0, 1)
				y.Map(0).Put(in.view, codes(9), w)
				w.refs++
			},
			want: "shared node w reached with valuations",
		},
		{
			name: "join side missing a tuple (dangling join)",
			corrupt: func(t *testing.T, in *Instance, w *Node) {
				z := mustChild(t, in, in.root, 1, paperex.StateS)
				z.Map(0).Delete(in.view, codes(1, 1))
				w.refs-- // the deleted entry held one of w's references
			},
			want: "has dangling tuples",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, w := wfFixture(t)
			tc.corrupt(t, in, w)
			err := in.CheckWF()
			if err == nil {
				t.Fatal("CheckWF accepted the corrupted instance")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckWF = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}
