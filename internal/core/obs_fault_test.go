package core_test

// Counter semantics under injected faults: the differential test
// (obs_diff_test.go) pins the happy-path contract; these tests pin the
// failure-path one — a failed mutation still counts its logical operation
// and its validate, a failed apply counts exactly one rollback, and only
// a rollback that itself fails counts a poison event. The faults come
// from the same injection plane the atomicity harness uses, so every
// counter assertion rides a mutation that genuinely tore mid-flight.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/faultinject/harness"
	"repro/internal/obs"
	"repro/internal/paperex"
)

// A metered is a relation with a metrics sink attached after seeding, so
// every counter starts at zero for the faulted op.
type metered struct {
	r *core.Relation
	m *obs.Metrics
}

func meter(r *core.Relation) metered {
	m := &obs.Metrics{}
	r.SetMetrics(m)
	return metered{r, m}
}

// freshTuple is absent from schedSeed.
var freshTuple = paperex.SchedulerTuple(3, 1, paperex.StateR, 2)

func freshInsert(r *core.Relation) error { return r.Insert(freshTuple) }

// sweepFreshInsert arms every step of a fresh insert into a metered
// scheduler relation in the given mode.
func sweepFreshInsert(t *testing.T, mode faultinject.Mode, contract func(metered, faultinject.Attempt)) {
	faultinject.Sweep(t, planeForTest(t), faultinject.Regime[metered]{
		Fresh:    func() metered { return meter(seededSched(t)) },
		Action:   func(s metered) error { return freshInsert(s.r) },
		Modes:    []faultinject.Mode{mode},
		Contract: contract,
	})
}

// TestObsCountersOnInjectedError arms an error at every error-capable step
// of a fresh insert. Whatever site fails, the failed mutation must count
// exactly: one insert, one validate, one apply, one rollback, no poison.
// (Injectable errors fire only from apply-phase instance sites, so the
// apply was always entered.)
func TestObsCountersOnInjectedError(t *testing.T) {
	sweepFreshInsert(t, faultinject.Error, func(s metered, a faultinject.Attempt) {
		a.RequireContained(t)
		d := s.m.Snapshot()
		want := obs.Snapshot{Inserts: 1, MutValidates: 1, MutApplies: 1, MutRollbacks: 1}
		if d != want {
			t.Fatalf("step %d (%s): counters after injected error\n got: %s\nwant: %s",
				a.Step, a.Point.Site, d.String(), want.String())
		}
		if s.r.Poisoned() {
			t.Fatalf("step %d: compensated mutation poisoned the relation", a.Step)
		}
	})
}

// TestObsCountersOnInjectedPanic arms a panic at every step of a fresh
// insert — including data-structure sites that fire before the apply phase
// even starts. The invariant is phase-shaped rather than a fixed delta:
// rollbacks happen exactly when an apply was entered.
func TestObsCountersOnInjectedPanic(t *testing.T) {
	sweepFreshInsert(t, faultinject.Panic, func(s metered, a faultinject.Attempt) {
		step, site := a.Step, a.Point.Site
		a.RequireContained(t)
		d := s.m.Snapshot()
		if d.Inserts != 1 {
			t.Fatalf("step %d: Inserts = %d, want 1", step, d.Inserts)
		}
		if d.MutValidates > 1 || d.MutApplies > d.MutValidates {
			t.Fatalf("step %d (%s): impossible phase counts %s", step, site, d.String())
		}
		if d.MutRollbacks != d.MutApplies {
			t.Fatalf("step %d (%s): rollbacks %d != applies %d — an entered apply must roll back exactly once",
				step, site, d.MutRollbacks, d.MutApplies)
		}
		if d.PoisonEvents != 0 || s.r.Poisoned() {
			t.Fatalf("step %d: contained panic poisoned the relation", step)
		}
	})
}

// TestObsCountersOnPoison makes the rollback itself fail — a persistent
// panic armed from the second instance-apply site fires once during apply
// and again during the undo replay — and checks the poison accounting:
// exactly one poison event and a traced poison span, and the poisoned
// relation's later rejected mutations still count their logical op but
// enter no phases.
func TestObsCountersOnPoison(t *testing.T) {
	p := planeForTest(t)
	step := secondLinkStep(t, p, freshTuple)

	ms := meter(seededSched(t))
	r, m := ms.r, ms.m
	ring := obs.NewRingTracer(32)
	r.SetTracer(ring)
	p.Reset()
	p.ArmFrom(int64(step), faultinject.Panic)
	err := freshInsert(r)
	p.Disarm()
	if err == nil {
		t.Fatal("doubly-faulted insert surfaced as success")
	}
	if !r.Poisoned() {
		t.Fatal("failed rollback did not poison the relation")
	}
	d := m.Snapshot()
	if d.PoisonEvents != 1 {
		t.Fatalf("PoisonEvents = %d, want 1", d.PoisonEvents)
	}
	if d.MutRollbacks != 1 {
		t.Fatalf("MutRollbacks = %d, want 1", d.MutRollbacks)
	}
	var sawPoison, sawFailedReplay bool
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case obs.EvPoison:
			sawPoison = true
		case obs.EvUndoReplay:
			if ev.Err != nil {
				sawFailedReplay = true
			}
		}
	}
	if !sawPoison || !sawFailedReplay {
		t.Fatalf("trace ring missing poison/failed-replay spans:\n%s", ring.String())
	}

	// The poisoned relation rejects mutations before any phase runs, but
	// the logical-op counter still ticks: the caller did ask for an insert.
	if err := freshInsert(r); err != core.ErrPoisoned {
		t.Fatalf("insert into poisoned relation: err = %v, want ErrPoisoned", err)
	}
	d2 := m.Snapshot().Sub(d)
	want := obs.Snapshot{Inserts: 1}
	if d2 != want {
		t.Fatalf("rejected insert delta\n got: %s\nwant: %s", d2.String(), want.String())
	}
}

// TestObsCountersFaultCorpus sweeps every mutation of every corpus case
// with an injected error at every error-capable step, asserting the
// universal failure-path invariants on the counters.
func TestObsCountersFaultCorpus(t *testing.T) {
	p := planeForTest(t)
	for _, c := range harness.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			build := func() *core.Relation {
				r, err := core.New(c.Spec(), c.Decomp())
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				for _, tup := range c.Seed {
					if err := r.Insert(tup); err != nil {
						t.Fatalf("seed insert %v: %v", tup, err)
					}
				}
				return r
			}
			for _, mut := range c.Muts {
				t.Run(mut.Name, func(t *testing.T) {
					faultinject.Sweep(t, p, faultinject.Regime[metered]{
						Fresh:  func() metered { return meter(build()) },
						Action: func(s metered) error { return mut.Run(s.r) },
						Modes:  []faultinject.Mode{faultinject.Error},
						Contract: func(s metered, a faultinject.Attempt) {
							step, site := a.Step, a.Point.Site
							a.RequireContained(t)
							d := s.m.Snapshot()
							if d.MutRollbacks == 0 {
								t.Fatalf("step %d (%s): failed apply counted no rollback: %s", step, site, d.String())
							}
							if d.MutApplies < d.MutRollbacks {
								t.Fatalf("step %d (%s): more rollbacks than applies: %s", step, site, d.String())
							}
							if d.PoisonEvents != 0 || s.r.Poisoned() {
								t.Fatalf("step %d: compensated mutation poisoned the relation", step)
							}
							if err := s.r.CheckInvariants(); err != nil {
								t.Fatalf("step %d: invariants: %v", step, err)
							}
						},
					})
				})
			}
		})
	}
}
