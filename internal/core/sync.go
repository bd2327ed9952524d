package core

import (
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/wal"
)

// SyncRelation makes a synthesized relation safe to share between
// goroutines with lock-free reads: it is one MVCC cell (see cell). Queries
// load the published version and run against that snapshot without ever
// taking a lock, so a reader never blocks behind a writer (and never
// blocks a writer); writers serialize among themselves, fork the next
// version copy-on-write, and publish it atomically on success or drop it
// on failure.
//
// Reads are snapshot-isolated, not linearizable with respect to in-flight
// writers: a query sees the latest version published before its load, and
// two tuples returned by one query always come from the same version.
type SyncRelation struct {
	cell
}

// NewSync wraps a relation. The caller must not use the wrapped relation
// directly afterwards: it becomes the published version 0 and must no
// longer be mutated.
func NewSync(r *Relation) *SyncRelation {
	s := &SyncRelation{}
	s.init(r)
	return s
}

// NumCells is 1: a SyncRelation is its own cell 0.
func (s *SyncRelation) NumCells() int { return 1 }

func (s *SyncRelation) cellAt(int) *cell { return &s.cell }

// Spec returns the relational specification.
func (s *SyncRelation) Spec() *Spec { return s.cur.Load().spec }

// Insert implements insert r t: fork, mutate copy-on-write, publish.
func (s *SyncRelation) Insert(t relation.Tuple) error { return s.insert(t) }

// InsertBatch inserts many tuples as one atomic version.
func (s *SyncRelation) InsertBatch(ts []relation.Tuple) error { return s.insertBatch(ts) }

// Remove implements remove r s. On error the fork is dropped and the
// published version is unchanged, so the reported count is 0.
func (s *SyncRelation) Remove(pat relation.Tuple) (int, error) { return s.remove(pat) }

// Update implements the keyed dupdate; like Remove, a failed update drops
// the fork and reports 0.
func (s *SyncRelation) Update(pat, u relation.Tuple) (int, error) { return s.update(pat, u, false) }

// ApplyCommits replays every record src hands over as one atomic version.
func (s *SyncRelation) ApplyCommits(src CommitSource) (int, error) { return s.apply(src) }

// ApplyCommit replays one logical delta as one atomic version.
func (s *SyncRelation) ApplyCommit(c wal.Commit) error { return s.applyOne(c) }

// Query implements query r s C against the current published snapshot,
// lock-free.
//
//relvet:role=read
func (s *SyncRelation) Query(pat relation.Tuple, out []string) ([]relation.Tuple, error) {
	return s.snapshot().Query(pat, out)
}

// QueryFunc streams results from the current published snapshot. The
// iteration holds no lock, so the callback may mutate this SyncRelation
// (insert, remove, update) freely: the mutation forks the latest published
// version while the iteration keeps reading its own pinned snapshot, and
// tuples published after the stream's snapshot was loaded are not seen.
//
//relvet:role=read
func (s *SyncRelation) QueryFunc(pat relation.Tuple, out []string, f func(relation.Tuple) bool) error {
	return s.snapshot().QueryFunc(pat, out, f)
}

// QueryRange is the range query against the current published snapshot,
// lock-free.
//
//relvet:role=read
func (s *SyncRelation) QueryRange(pat relation.Tuple, col string, lo, hi *value.Value, out []string) ([]relation.Tuple, error) {
	return s.snapshot().QueryRange(pat, col, lo, hi, out)
}

// All returns every tuple of the current published snapshot, in
// deterministic order.
//
//relvet:role=read
func (s *SyncRelation) All() ([]relation.Tuple, error) { return s.snapshot().All() }

// Len returns the number of tuples in the current published snapshot.
//
//relvet:role=read
func (s *SyncRelation) Len() int {
	return s.cur.Load().Len()
}

// Version returns the published snapshot's version number: the count of
// write operations that have published a new version.
func (s *SyncRelation) Version() uint64 {
	return s.cur.Load().Version()
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
	return s.cur.Load()
}

// CheckInvariants verifies the current snapshot's well-formedness. The
// snapshot is immutable, so the walk needs no lock and is trivially
// consistent.
func (s *SyncRelation) CheckInvariants() error {
	return s.cur.Load().CheckInvariants()
}

// ExplainQuery reports the published snapshot's explanation. It carries
// the snapshot's version number; a later explanation with a higher version
// ran against a state some write has replaced since.
//
//relvet:role=read
func (s *SyncRelation) ExplainQuery(input, output []string) (*QueryExplain, error) {
	return s.explain(input, output)
}

// SetMetrics attaches a metrics sink to the relation.
func (s *SyncRelation) SetMetrics(m *obs.Metrics) {
	s.config(func(r *Relation) { r.SetMetrics(m) })
}

// SetTracer attaches a span-event tracer to the relation.
func (s *SyncRelation) SetTracer(t obs.Tracer) {
	s.config(func(r *Relation) { r.SetTracer(t) })
}

// Metrics returns the attached metrics sink, or nil.
func (s *SyncRelation) Metrics() *obs.Metrics {
	return s.cur.Load().Metrics()
}
