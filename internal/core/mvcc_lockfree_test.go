package core

// White-box proof of the MVCC tiers' lock-free read path: the ONLY locks
// either tier owns are its cells' writer mutexes (cell.wmu — the struct is
// visible from this internal test, so a new lock cannot sneak in
// unnoticed), and every read operation completes while this test holds
// all of them.

import (
	"testing"
	"time"

	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/value"
)

func schedSpecInternal() *Spec {
	return &Spec{
		Name: "processes",
		Columns: []ColDef{
			{Name: "ns", Type: IntCol},
			{Name: "pid", Type: IntCol},
			{Name: "state", Type: IntCol},
			{Name: "cpu", Type: IntCol},
		},
		FDs: paperex.SchedulerFDs(),
	}
}

func newSchedInternal(t *testing.T) *Relation {
	t.Helper()
	r, err := New(schedSpecInternal(), paperex.SchedulerDecomp())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReadsAreLockFree holds every writer mutex a tier owns — each cell's
// wmu, the only locks there are — and runs the whole read surface. Routed
// reads, fan-out reads and the sequential broadcast must all complete; a
// read path that acquired any engine lock would deadlock, and the watchdog
// converts that hang into a clear failure.
func TestReadsAreLockFree(t *testing.T) {
	sharded, err := NewSharded(newSchedInternal(t).spec, paperex.SchedulerDecomp(), ShardOptions{
		ShardKey: []string{"ns", "pid"},
		Shards:   4,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]Engine{
		"SyncRelation":    NewSync(newSchedInternal(t)),
		"ShardedRelation": sharded,
	} {
		t.Run(name, func(t *testing.T) {
			const rows = 20
			for i := int64(0); i < rows; i++ {
				if err := e.Insert(paperex.SchedulerTuple(i%3, i, paperex.StateR, i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := range e.NumCells() {
				e.body().cells[i].wmu.Lock()
				defer e.body().cells[i].wmu.Unlock()
			}

			done := make(chan struct{})
			go func() {
				defer close(done)
				key := relation.NewTuple(relation.BindInt("ns", 0), relation.BindInt("pid", 0))
				if res, err := e.Query(key, []string{"cpu"}); err != nil || len(res) != 1 {
					t.Errorf("keyed query: %d rows, err %v", len(res), err)
				}
				pat := relation.NewTuple(relation.BindInt("state", paperex.StateR))
				if res, err := e.Query(pat, []string{"pid"}); err != nil || len(res) != rows {
					t.Errorf("pattern query: %d rows, err %v", len(res), err)
				}
				n := 0
				if err := e.QueryFunc(pat, []string{"pid"}, func(relation.Tuple) bool { n++; return true }); err != nil || n != rows {
					t.Errorf("query func: %d rows, err %v", n, err)
				}
				lo := value.OfInt(2)
				if _, err := e.QueryRange(relation.NewTuple(), "cpu", &lo, nil, []string{"pid"}); err != nil {
					t.Errorf("query range: %v", err)
				}
				if res, err := e.All(); err != nil || len(res) != rows {
					t.Errorf("all: %d rows, err %v", len(res), err)
				}
				if got := e.Len(); got != rows {
					t.Errorf("len: %d", got)
				}
				if _, err := e.ExplainQuery([]string{"state"}, []string{"pid"}); err != nil {
					t.Errorf("explain: %v", err)
				}
				if s, ok := e.(*SyncRelation); ok && (s.Snapshot() == nil || s.Snapshot().Version() == 0) {
					t.Errorf("snapshot/version unavailable")
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: read path blocked with all writer mutexes held — reads are not lock-free", name)
			}
		})
	}
}
