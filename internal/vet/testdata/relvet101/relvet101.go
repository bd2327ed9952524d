// Package relvet101 is the uncheckedmut corpus: each `// want` line must
// be flagged, every other line must stay clean.
package relvet101

import (
	"repro/internal/core"
	"repro/internal/relation"
)

func trigger(r *core.Relation, sr *core.ShardedRelation, t relation.Tuple) {
	r.Insert(t)                         // want relvet101
	go r.Insert(t)                      // want relvet101
	defer r.Remove(t)                   // want relvet101
	sr.InsertBatch([]relation.Tuple{t}) // want relvet101
}

func nearMiss(r *core.Relation, t relation.Tuple) error {
	if err := r.Insert(t); err != nil {
		return err
	}
	n, err := r.Remove(t)
	_ = n
	// Non-mutating calls may discard results freely.
	r.Len()
	r.Poisoned()
	return err
}

// The batch API carries the same error-return contract as the per-tuple
// mutations: InsertBatch is atomic across the whole slice and its error
// reports FD violations and rollback poisoning for the entire batch, so
// discarding it hides every tuple's outcome at once.
func batchTrigger(sr *core.ShardedRelation, ts []relation.Tuple) {
	go sr.InsertBatch(ts)    // want relvet101
	defer sr.InsertBatch(ts) // want relvet101
	sr.Remove(ts[0])         // want relvet101
}

func batchNearMiss(sr *core.ShardedRelation, ts []relation.Tuple) error {
	if err := sr.InsertBatch(ts); err != nil {
		return err
	}
	removed, err := sr.Remove(ts[0])
	_ = removed
	return err
}
