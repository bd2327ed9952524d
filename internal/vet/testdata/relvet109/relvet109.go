// Package relvet109 is the escapedrow corpus.
package relvet109

import (
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/value"
)

type holder struct{ row relation.Tuple }

func triggerOuter(r *core.Relation, pat relation.Tuple) (relation.Tuple, error) {
	var last relation.Tuple
	err := r.QueryFunc(pat, nil, func(t relation.Tuple) bool {
		last = t // want relvet109
		return true
	})
	return last, err
}

func triggerMultiAssign(r *core.SyncRelation, pat relation.Tuple) (relation.Tuple, bool) {
	var cur relation.Tuple
	found := false
	_ = r.QueryFunc(pat, nil, func(t relation.Tuple) bool {
		cur, found = t, true // want relvet109
		return false
	})
	return cur, found
}

func triggerAppend(r *core.ShardedRelation, pat relation.Tuple) []relation.Tuple {
	var kept []relation.Tuple
	_ = r.QueryFunc(pat, nil, func(t relation.Tuple) bool {
		kept = append(kept, t) // want relvet109
		return true
	})
	return kept
}

func triggerField(r *core.DurableRelation, pat relation.Tuple, h *holder) {
	_ = r.QueryFunc(pat, nil, func(t relation.Tuple) bool {
		h.row = t // want relvet109
		return true
	})
}

func triggerMap(r *core.Relation, pat relation.Tuple) map[int64]relation.Tuple {
	m := map[int64]relation.Tuple{}
	_ = r.QueryFunc(pat, []string{"pid"}, func(t relation.Tuple) bool {
		m[t.MustGet("pid").Int()] = t // want relvet109
		return true
	})
	return m
}

func triggerIndex(r *core.Relation, pat relation.Tuple, lo, hi *value.Value) []relation.Tuple {
	out := make([]relation.Tuple, 8)
	i := 0
	_ = r.QueryRangeFunc(pat, "pid", lo, hi, nil, func(t relation.Tuple) bool {
		out[i%8] = t // want relvet109
		i++
		return true
	})
	return out
}

func triggerSend(f *repl.Follower, pat relation.Tuple, ch chan<- relation.Tuple) error {
	return f.QueryFunc(pat, nil, func(t relation.Tuple) bool {
		ch <- t // want relvet109
		return true
	})
}

func triggerGoCapture(r core.Engine, pat relation.Tuple, use func(relation.Tuple)) error {
	return r.QueryFunc(pat, nil, func(t relation.Tuple) bool {
		go func() {
			use(t) // want relvet109
		}()
		return true
	})
}

func triggerGoArg(r core.Engine, pat relation.Tuple, use func(relation.Tuple)) error {
	return r.QueryFunc(pat, nil, func(t relation.Tuple) bool {
		go use(t) // want relvet109
		return true
	})
}

func nearMissReads(r *core.Relation, pat relation.Tuple) (int64, value.Value, error) {
	var sum int64
	var first value.Value
	err := r.QueryFunc(pat, []string{"cpu"}, func(t relation.Tuple) bool {
		sum += t.MustGet("cpu").Int()
		first = t.ValueAt(0)
		return true
	})
	return sum, first, err
}

func nearMissProject(r *core.Relation, pat relation.Tuple, lo, hi *value.Value) ([]relation.Tuple, relation.Tuple, error) {
	var kept []relation.Tuple
	var last relation.Tuple
	err := r.QueryRangeFunc(pat, "pid", lo, hi, nil, func(t relation.Tuple) bool {
		kept = append(kept, t.Project(t.Dom()))
		last = t.Project(t.Dom())
		return true
	})
	return kept, last, err
}

func nearMissLocal(r *core.Relation, pat relation.Tuple, use func(relation.Tuple)) error {
	return r.QueryFunc(pat, nil, func(t relation.Tuple) bool {
		row := t
		use(row)
		go use(t.Project(t.Dom()))
		return true
	})
}

func nearMissOtherCall(r *core.Relation, pat relation.Tuple) (relation.Tuple, error) {
	var last relation.Tuple
	// Not a streaming read: the rows Query returns are the caller's.
	rows, err := r.Query(pat, nil)
	for _, t := range rows {
		last = t
	}
	return last, err
}
