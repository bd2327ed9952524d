package instance

// White-box tests of the two-phase mutation path: planning detects FD
// conflicts before any write, the undo log restores the exact pre-mutation
// instance when the apply phase fails (injected errors and panics alike),
// and a failing rollback is the one case that marks the instance torn.

import (
	"testing"

	"repro/internal/colblock"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// TestPlanRejectsConflictBeforeWriting is the torn-insert regression test.
// The decomposition gives w two units (c at word 0, d at word 1) behind
// one shared node, so a conflicting insert used to write the first unit
// before detecting the conflict on the second, leaving a torn node. The
// planning pass must now reject the insert without touching either slot.
func TestPlanRejectsConflictBeforeWriting(t *testing.T) {
	d := decomp.MustNew([]decomp.Binding{
		decomp.Let("w", []string{"a"}, []string{"c", "d"},
			decomp.J(decomp.U("c"), decomp.U("d"))),
		decomp.Let("x", nil, []string{"a", "c", "d"},
			decomp.M(dstruct.HTableKind, "w", "a")),
	}, "x")
	fds := fd.NewSet(fd.FD{From: relation.NewCols("a"), To: relation.NewCols("c", "d")})
	in := New(d, fds)
	tup := func(a, c, dv int64) relation.Tuple {
		return relation.NewTuple(relation.BindInt("a", a), relation.BindInt("c", c), relation.BindInt("d", dv))
	}
	if ok, err := in.Insert(tup(1, 2, 3)); err != nil || !ok {
		t.Fatalf("seed insert: ok=%v err=%v", ok, err)
	}
	w := mustChild(t, in, in.root, 0, 1)

	// Manufacture the state the old code could be caught in: the c unit
	// empty, the d unit populated. A conflicting insert must leave the c
	// slot empty instead of filling it on the way to the d conflict.
	w.words()[0] = colblock.Unset
	if ok, err := in.Insert(tup(1, 2, 9)); err == nil {
		t.Fatalf("conflicting insert accepted (ok=%v)", ok)
	}
	if w.words()[0] != colblock.Unset {
		t.Fatalf("planning wrote unit c = %x before detecting the d conflict", w.words()[0])
	}
}

// schedFI builds a freshly seeded scheduler instance under an installed
// fault plane (so its maps are wrapped and injection points are live).
func schedFI(t *testing.T, p *faultinject.Plane) *Instance {
	t.Helper()
	p.Disarm()
	in := New(paperex.SchedulerDecomp(), paperex.SchedulerFDs())
	for _, tup := range []relation.Tuple{
		paperex.SchedulerTuple(1, 1, paperex.StateS, 7),
		paperex.SchedulerTuple(1, 2, paperex.StateR, 4),
	} {
		if ok, err := in.Insert(tup); err != nil || !ok {
			t.Fatalf("seed insert %v: ok=%v err=%v", tup, ok, err)
		}
	}
	return in
}

func installPlane(t *testing.T) *faultinject.Plane {
	t.Helper()
	p := faultinject.NewPlane()
	faultinject.Install(p)
	t.Cleanup(faultinject.Uninstall)
	return p
}

// TestMutationsRollBackAtEveryStep injects a fault — returned error at the
// error-capable instance sites, panic at every site — at each step of an
// insert and a remove, and asserts the instance afterwards is well-formed,
// represents exactly the pre-mutation relation, and accepts a retry.
func TestMutationsRollBackAtEveryStep(t *testing.T) {
	p := installPlane(t)
	tup := paperex.SchedulerTuple(2, 1, paperex.StateR, 9)
	gone := paperex.SchedulerTuple(1, 1, paperex.StateS, 7)
	muts := []struct {
		name string
		run  func(in *Instance) error
	}{
		{"insert", func(in *Instance) error { _, err := in.Insert(tup); return err }},
		{"remove", func(in *Instance) error { _, err := in.RemoveTuple(gone); return err }},
	}
	type subject struct {
		in     *Instance
		oracle *relation.Relation
		before int
	}
	for _, mu := range muts {
		t.Run(mu.name, func(t *testing.T) {
			faultinject.Sweep(t, p, faultinject.Regime[subject]{
				Fresh: func() subject {
					in := schedFI(t, p)
					return subject{in, in.Relation(), in.Len()}
				},
				Action: func(s subject) error { return mu.run(s.in) },
				Contract: func(s subject, a faultinject.Attempt) {
					in, step, mode := s.in, a.Step, a.Mode
					// The bare instance has no containment boundary: an
					// injected panic must reach the caller as a panic.
					if mode == faultinject.Error && (a.Err == nil || a.Panicked) {
						t.Fatalf("step %d: injected error not surfaced", step)
					}
					if mode == faultinject.Panic && !a.Panicked {
						t.Fatalf("step %d: injected panic did not propagate", step)
					}
					if in.Torn() {
						t.Fatalf("step %d/%v: single fault tore the instance", step, mode)
					}
					if werr := in.CheckWF(); werr != nil {
						t.Fatalf("step %d/%v: instance not well-formed after rollback: %v", step, mode, werr)
					}
					if in.Len() != s.before || !in.Relation().Equal(s.oracle) {
						t.Fatalf("step %d/%v: α changed after failed mutation", step, mode)
					}
					if err := mu.run(in); err != nil {
						t.Fatalf("step %d/%v: retry after rollback failed: %v", step, mode, err)
					}
					if werr := in.CheckWF(); werr != nil {
						t.Fatalf("step %d/%v: retry left instance ill-formed: %v", step, mode, werr)
					}
				},
			})
		})
	}
}

// TestDoubleFaultMarksTorn arms a persistent panic fault starting at the
// second link write of an insert: the apply phase panics with a non-empty
// undo log, and replaying the log hits the still-armed fault again. That —
// and only that — must mark the instance torn.
func TestDoubleFaultMarksTorn(t *testing.T) {
	p := installPlane(t)
	tup := paperex.SchedulerTuple(2, 1, paperex.StateR, 9)
	tr := schedFI(t, p)
	p.Reset()
	p.Trace(true)
	if _, err := tr.Insert(tup); err != nil {
		t.Fatalf("trace run failed: %v", err)
	}
	pts := p.Points()
	p.Trace(false)
	step, links := 0, 0
	for i, pi := range pts {
		if pi.Site == "instance.insert.link" {
			links++
			if links == 2 {
				step = i + 1
				break
			}
		}
	}
	if step == 0 {
		t.Fatalf("insert of %v has %d link writes, need 2 (points: %v)", tup, links, pts)
	}
	in := schedFI(t, p)
	p.Reset()
	p.ArmFrom(int64(step), faultinject.Panic)
	_, panicked := faultinject.Contain(func() error { _, err := in.Insert(tup); return err })
	p.Disarm()
	if !panicked {
		t.Fatal("persistent fault did not panic the insert")
	}
	if !in.Torn() {
		t.Fatal("rollback hit the armed fault but the instance is not torn")
	}
}
