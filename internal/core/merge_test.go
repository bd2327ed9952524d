package core

import (
	"slices"
	"testing"

	"repro/internal/plan"
	"repro/internal/relation"
)

// TestMergeSorted: parts are sorted and internally de-duplicated, but a
// projection can put the same tuple in several of them — at the heads, or
// deep in the tails behind values only one part has. Each value comes out
// once, in order, whichever parts held it. The parts here are boxed rows,
// as a cell without code rows answers; TestFanOutMerge covers held ones.
func TestMergeSorted(t *testing.T) {
	part := func(vs ...int64) []relation.Tuple {
		names := []string{"a", "b"}
		ts := make([]relation.Tuple, len(vs))
		for i, v := range vs {
			ts[i] = relation.NewTuple(relation.BindInt(names[0], v/10), relation.BindInt(names[1], v%10))
		}
		return ts
	}
	for _, c := range []struct {
		name  string
		parts [][]relation.Tuple
		want  []relation.Tuple
	}{
		{"nothing", [][]relation.Tuple{nil, {}, nil}, part()},
		{"one part", [][]relation.Tuple{nil, part(11, 12, 30), nil}, part(11, 12, 30)},
		{"disjoint", [][]relation.Tuple{part(11, 40), part(12, 35), part(5)}, part(5, 11, 12, 35, 40)},
		{"equal heads", [][]relation.Tuple{part(11, 20), part(11, 30), part(11)}, part(11, 20, 30)},
		{"equal tails", [][]relation.Tuple{part(1, 25, 99), part(2, 25, 98, 99), part(3, 99)}, part(1, 2, 3, 25, 98, 99)},
		{"all equal", [][]relation.Tuple{part(7, 8), part(7, 8), part(7, 8)}, part(7, 8)},
	} {
		parts := make([]plan.Part, len(c.parts))
		for i, rows := range c.parts {
			parts[i] = plan.Part{Rows: rows}
		}
		got, err := merged(parts, nil)
		if err != nil || got == nil || !slices.EqualFunc(got, c.want, relation.Tuple.Equal) {
			t.Errorf("%s: merged %v (%v), want %v", c.name, got, err, c.want)
		}
	}
}
