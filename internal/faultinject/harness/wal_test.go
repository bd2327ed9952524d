package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wal"
)

// This file extends the harness to the durable tier: ExhaustWAL injects a
// fault at every reachable step of every mutation of a write-ahead-logged
// relation — data-structure steps, fork steps, and the WAL's own append/
// fsync steps — and asserts the durability contract against an
// acknowledged-prefix oracle:
//
//   - Error mode models a failing substrate under a live process. The
//     mutation must surface the error, the published state must be
//     exactly the pre-mutation α (fork dropped, failed append truncated
//     away), a retry must succeed, and a clean close + reopen must
//     recover exactly the post-mutation state.
//
//   - Panic mode models a crash (kill) at the step. The harness abandons
//     the handle mid-flight, reopens the directory, and asserts the
//     recovered α is a prefix of acknowledgement: either the
//     pre-mutation state (the record never became readable) or the
//     post-mutation state (the record was fully written — a crash after
//     a complete but unacknowledged record may legitimately replay).
//     Nothing else is acceptable: no torn tuples, no partial deltas, and
//     the recovered instance passes CheckWF. Re-running the mutation
//     must converge to the post state.
//
// ExhaustWALCheckpoint and ExhaustWALRecovery run the same two modes
// over the checkpoint path (snapshot write + log rotation) and over
// recovery itself (durable.Open replaying a prepared directory), the
// latter being the regression harness for replay-through-COW: a fault
// mid-replay must fail Open loudly and leave nothing behind that a
// retried Open would trip over.

// openWAL opens (or creates) the case's durable relation in dir. shards
// == 0 opens the sync tier; > 0 the sharded tier on the case's key
// columns with a single worker, keeping fan-out step order deterministic
// for the step-counting plane.
func openWAL(t *testing.T, dir string, c Case, shards int) *core.DurableRelation {
	t.Helper()
	d, err := tryOpenWAL(dir, c, shards)
	if err != nil {
		t.Fatalf("%s: durable open: %v", c.Name, err)
	}
	return d
}

func tryOpenWAL(dir string, c Case, shards int) (*core.DurableRelation, error) {
	opts := durable.Options{
		Create:  true,
		Policy:  wal.SyncAlways,
		Metrics: &obs.Metrics{},
	}
	if shards > 0 {
		opts.Shards = shards
		opts.ShardKey = c.Key
		opts.Workers = 1
	}
	return durable.Open(dir, c.Spec(), c.Decomp(), opts)
}

// seedWAL acknowledges the case's seed tuples through the durable engine.
func seedWAL(t *testing.T, d *core.DurableRelation, c Case) {
	t.Helper()
	for _, tup := range c.Seed {
		if err := d.Insert(tup); err != nil {
			t.Fatalf("%s: seed %v: %v", c.Name, tup, err)
		}
	}
}

// A walSubject is one seeded durable relation and the directory under it.
type walSubject struct {
	dir string
	d   *core.DurableRelation
}

// freshWAL builds walSubjects: a new directory, the case's relation opened
// in it, the seed tuples acknowledged through the durable engine.
func freshWAL(t *testing.T, c Case, shards int) func() *walSubject {
	return func() *walSubject {
		t.Helper()
		s := &walSubject{dir: t.TempDir()}
		s.d = openWAL(t, s.dir, c, shards)
		seedWAL(t, s.d, c)
		return s
	}
}

// closeTraced releases the subject of a clean traced run.
func (s *walSubject) closeTraced(t *testing.T) {
	t.Helper()
	if err := s.d.Close(); err != nil {
		t.Fatalf("trace close: %v", err)
	}
}

// alpha reads the abstraction α of the case's relation as src — a durable
// primary or a replica — serves it.
func alpha(t *testing.T, c Case, src interface {
	All() ([]relation.Tuple, error)
}) *relation.Relation {
	t.Helper()
	ts, err := src.All()
	if err != nil {
		t.Fatalf("reading α: %v", err)
	}
	rr := relation.Empty(c.Spec().Cols())
	for _, tup := range ts {
		if err := rr.Insert(tup); err != nil {
			t.Fatalf("α tuple %v: %v", tup, err)
		}
	}
	return rr
}

// walOracles computes the α before and after the mutation on a plain
// in-memory engine.
func walOracles(t *testing.T, c Case, mu Mutation) (pre, post *relation.Relation) {
	t.Helper()
	s := core.NewSync(c.build(t))
	pre = s.Snapshot().Instance().Relation()
	if err := mu.Run(s); err != nil {
		t.Fatalf("%s: oracle run of %s: %v", c.Name, mu.Name, err)
	}
	return pre, s.Snapshot().Instance().Relation()
}

// ExhaustWAL runs the exhaustive kill-point regime over every mutation of
// the case on the durable tier. Which mutations the all-or-nothing oracle
// applies to is decided by what the traced run did, not by their names.
func ExhaustWAL(t *testing.T, p *faultinject.Plane, c Case, shards int) {
	for _, mu := range c.engineMuts() {
		t.Run(mu.Name, func(t *testing.T) {
			pre, post := walOracles(t, c, mu)
			faultinject.Sweep(t, p, faultinject.Regime[*walSubject]{
				Fresh:   freshWAL(t, c, shards),
				Action:  func(s *walSubject) error { return mu.Run(s.d) },
				Require: []string{"wal."},
				Traced: func(s *walSubject, _ []faultinject.PointInfo) {
					// Seeding is routed inserts, so any fan-out the engine
					// counted is the traced mutation's.
					fanOuts := s.d.Metrics().Snapshot().FanOuts
					s.closeTraced(t)
					if fanOuts > 0 {
						// A fan-out mutation is atomic per cell, not across
						// cells: a fault in one shard leaves earlier shards'
						// commits published, so the all-or-nothing oracle
						// below does not apply. Routed mutations cover the
						// sharded durable write path.
						t.Skipf("%s fanned out over the %d cells (shard.fanouts=%d): per-cell atomicity, the all-or-nothing oracle does not apply", mu.Name, shards, fanOuts)
					}
				},
				Contract: func(s *walSubject, a faultinject.Attempt) {
					d, step := s.d, a.Step
					if a.Err == nil {
						t.Fatalf("step %d/%v: injected fault surfaced as success", step, a.Mode)
					}

					if a.Mode == faultinject.Error {
						// Live-failure contract: nothing published, nothing
						// logged, retry works, recovery agrees.
						if !alpha(t, c, d).Equal(pre) {
							t.Fatalf("step %d/error: failed %s changed the published α", step, mu.Name)
						}
						if ierr := d.CheckInvariants(); ierr != nil {
							t.Fatalf("step %d/error: invariants after failed %s: %v", step, mu.Name, ierr)
						}
						if rerr := mu.Run(d); rerr != nil {
							t.Fatalf("step %d/error: retry: %v", step, rerr)
						}
						if !alpha(t, c, d).Equal(post) {
							t.Fatalf("step %d/error: retried %s did not reach the post state", step, mu.Name)
						}
						if cerr := d.Close(); cerr != nil {
							t.Fatalf("step %d/error: close: %v", step, cerr)
						}
						d2 := openWAL(t, s.dir, c, shards)
						if !alpha(t, c, d2).Equal(post) {
							t.Fatalf("step %d/error: recovery disagrees with the acknowledged state", step)
						}
						d2.Close()
						return
					}

					// Kill contract. The handle is dead (possibly wedged);
					// Close only releases file handles — it cannot repair or
					// extend the on-disk tail the "crash" left behind.
					d.Close()
					d2, oerr := tryOpenWAL(s.dir, c, shards)
					if oerr != nil {
						t.Fatalf("step %d/panic: reopen after kill: %v", step, oerr)
					}
					got := alpha(t, c, d2)
					if !got.Equal(pre) && !got.Equal(post) {
						t.Fatalf("step %d/panic: recovered α is neither the pre- nor the post-%s state:\n%v", step, mu.Name, got)
					}
					if ierr := d2.CheckInvariants(); ierr != nil {
						t.Fatalf("step %d/panic: invariants after recovery: %v", step, ierr)
					}
					if rerr := mu.Run(d2); rerr != nil {
						t.Fatalf("step %d/panic: re-running %s after recovery: %v", step, mu.Name, rerr)
					}
					if !alpha(t, c, d2).Equal(post) {
						t.Fatalf("step %d/panic: re-run did not converge to the post state", step)
					}
					if cerr := d2.Close(); cerr != nil {
						t.Fatalf("step %d/panic: close after recovery: %v", step, cerr)
					}
				},
			})
		})
	}
}

// ExhaustWALCheckpoint exhausts the checkpoint path: snapshot write, log
// rotation, and everything between. A checkpoint never mutates the
// relation, so under every fault the live α must be untouched, and after
// a kill the directory must recover to exactly the acknowledged state —
// served by the old log, the new snapshot, or both, depending on where
// the crash landed.
func ExhaustWALCheckpoint(t *testing.T, p *faultinject.Plane, c Case) {
	pre := c.build(t).Instance().Relation()
	faultinject.Sweep(t, p, faultinject.Regime[*walSubject]{
		Fresh:   freshWAL(t, c, 0),
		Action:  func(s *walSubject) error { return s.d.Checkpoint() },
		Require: []string{"ckpt.", "wal.rotate."},
		Traced:  func(s *walSubject, _ []faultinject.PointInfo) { s.closeTraced(t) },
		Contract: func(s *walSubject, a faultinject.Attempt) {
			d, step, mode := s.d, a.Step, a.Mode
			if a.Err == nil {
				t.Fatalf("step %d/%v: injected fault surfaced as success", step, mode)
			}
			if !alpha(t, c, d).Equal(pre) {
				t.Fatalf("step %d/%v: failed checkpoint changed the live α", step, mode)
			}

			if mode == faultinject.Error {
				// A failed checkpoint must be retryable in place.
				if rerr := d.Checkpoint(); rerr != nil {
					t.Fatalf("step %d/error: checkpoint retry: %v", step, rerr)
				}
				if cerr := d.Close(); cerr != nil {
					t.Fatalf("step %d/error: close: %v", step, cerr)
				}
			} else {
				d.Close() // kill: release handles only
			}

			d2, oerr := tryOpenWAL(s.dir, c, 0)
			if oerr != nil {
				t.Fatalf("step %d/%v: reopen after checkpoint fault: %v", step, mode, oerr)
			}
			if !alpha(t, c, d2).Equal(pre) {
				t.Fatalf("step %d/%v: recovery after checkpoint fault lost state", step, mode)
			}
			if rerr := d2.Checkpoint(); rerr != nil {
				t.Fatalf("step %d/%v: checkpoint after recovery: %v", step, mode, rerr)
			}
			if cerr := d2.Close(); cerr != nil {
				t.Fatalf("step %d/%v: close after recovery: %v", step, mode, cerr)
			}
		},
	})
}

// ExhaustWALRecovery exhausts recovery itself: a directory with a
// checkpoint and a log tail is prepared once, then durable.Open is run
// with a fault armed at every step it reaches. A faulted Open must fail
// (error or abandoned panic) and return no relation; because replay goes
// through the copy-on-write publish path, the directory is untouched and
// a disarmed retry must recover the full acknowledged state. This is the
// regression harness for replay-through-COW — a compensation-based
// replay would leave a half-applied relation behind on the first fault
// and the retry would disagree with the oracle.
func ExhaustWALRecovery(t *testing.T, p *faultinject.Plane, c Case) {
	prep := freshWAL(t, c, 0)()
	dir, d := prep.dir, prep.d
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("prepare checkpoint: %v", err)
	}
	// Tail records past the checkpoint: run every mutation that still
	// applies, accepting that later ones may no-op after earlier ones.
	for _, mu := range c.Muts {
		if err := mu.Run(d); err != nil {
			t.Fatalf("prepare tail %s: %v", mu.Name, err)
		}
	}
	want := alpha(t, c, d)
	if err := d.Close(); err != nil {
		t.Fatalf("prepare close: %v", err)
	}

	// The subject is the attempt's own Open of the one prepared directory.
	type recovery struct{ opened *core.DurableRelation }
	faultinject.Sweep(t, p, faultinject.Regime[*recovery]{
		Fresh: func() *recovery { return new(recovery) },
		Action: func(r *recovery) (err error) {
			r.opened, err = tryOpenWAL(dir, c, 0)
			return err
		},
		Require: []string{"recovery.apply"},
		Traced: func(r *recovery, _ []faultinject.PointInfo) {
			if !alpha(t, c, r.opened).Equal(want) {
				t.Fatal("clean recovery disagrees with the acknowledged state")
			}
			// The kill-points swept below sit inside one batch: checkpoint
			// and tail were replayed on one fork and published once. (The
			// version stamp says so; Open attaches the metrics sink only
			// after the replay.)
			versions, err := r.opened.Pin(func() {})
			if err != nil {
				t.Fatalf("pin: %v", err)
			}
			if got := versions[0].Version(); got != 1 {
				t.Fatalf("clean recovery left the cell at version %d, want 1: checkpoint and tail are one batch", got)
			}
			if err := r.opened.Close(); err != nil {
				t.Fatalf("trace close: %v", err)
			}
		},
		Contract: func(r *recovery, a faultinject.Attempt) {
			step, mode := a.Step, a.Mode
			if a.Err == nil {
				r.opened.Close()
				t.Fatalf("step %d/%v: faulted recovery surfaced as success", step, mode)
			}
			if r.opened != nil {
				r.opened.Close()
				t.Fatalf("step %d/%v: faulted recovery returned a relation", step, mode)
			}
			// The COW guarantee: a disarmed retry sees an untouched
			// directory and recovers everything.
			d3, oerr := tryOpenWAL(dir, c, 0)
			if oerr != nil {
				t.Fatalf("step %d/%v: retried recovery failed: %v", step, mode, oerr)
			}
			if !alpha(t, c, d3).Equal(want) {
				t.Fatalf("step %d/%v: retried recovery disagrees with the acknowledged state", step, mode)
			}
			if ierr := d3.CheckInvariants(); ierr != nil {
				t.Fatalf("step %d/%v: invariants after retried recovery: %v", step, mode, ierr)
			}
			if cerr := d3.Close(); cerr != nil {
				t.Fatalf("step %d/%v: close after retried recovery: %v", step, mode, cerr)
			}
		},
	})
}
