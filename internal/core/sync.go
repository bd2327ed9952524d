package core

// SyncRelation makes a synthesized relation safe to share between
// goroutines with lock-free reads: it is the engine body over one MVCC
// cell (see engine and cell). Queries load the published version and run
// against that snapshot without ever taking a lock, so a reader never
// blocks behind a writer (and never blocks a writer); writers serialize
// among themselves, fork the next version copy-on-write, and publish it
// atomically on success or drop it on failure.
//
// Reads are snapshot-isolated, not linearizable with respect to in-flight
// writers: a query sees the latest version published before its load, and
// two tuples returned by one query always come from the same version.
type SyncRelation struct {
	engine
}

// NewSync wraps a relation, keeping the metrics sink and tracer already
// set on it. The caller must not use the wrapped relation directly
// afterwards: it becomes the published version 0 and must no longer be
// mutated.
func NewSync(r *Relation) *SyncRelation {
	s := &SyncRelation{engine{spec: r.spec, metrics: r.metrics, cells: make([]cell, 1)}}
	s.cells[0].init(r)
	return s
}

// Snapshot pins the currently published version and returns it as a
// read-only handle. The handle is immutable — queries on it keep
// answering from the same state no matter how many writes are published
// afterwards. Use it to run several queries against one consistent state;
// re-load (or go back through the SyncRelation) to observe later writes.
// The caller must not mutate the returned relation.
//
//relvet:role=read
func (s *SyncRelation) Snapshot() *Relation {
	return s.cells[0].cur.Load()
}
