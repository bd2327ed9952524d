package faultinject

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPointCountsAndSingleShot(t *testing.T) {
	p := NewPlane()
	for i := 0; i < 5; i++ {
		if err := p.Point("s", true); err != nil {
			t.Fatalf("disarmed point fired: %v", err)
		}
	}
	if p.Steps() != 5 {
		t.Fatalf("Steps = %d, want 5", p.Steps())
	}
	p.Reset()
	p.Arm(2, Error)
	if err := p.Point("a", true); err != nil {
		t.Fatalf("step 1 fired early: %v", err)
	}
	err := p.Point("b", true)
	if err == nil {
		t.Fatal("armed step 2 did not fire")
	}
	var inj *Injected
	if !errors.As(err, &inj) || inj.Site != "b" || inj.Step != 2 || inj.Mode != Error {
		t.Fatalf("injected = %+v", inj)
	}
	// Single shot: later steps pass.
	if err := p.Point("c", true); err != nil {
		t.Fatalf("fired twice: %v", err)
	}
	if got := p.Fired(); len(got) != 1 || got[0].Site != "b" {
		t.Fatalf("Fired = %v", got)
	}
}

func TestErrorModeSkipsPanicOnlySites(t *testing.T) {
	p := NewPlane()
	p.Arm(1, Error)
	if err := p.Point("panic-only", false); err != nil {
		t.Fatalf("error fired at a panic-only site: %v", err)
	}
	// The plane stands down rather than firing at the wrong step later.
	if err := p.Point("can-error", true); err != nil {
		t.Fatalf("stood-down plane fired: %v", err)
	}
	if len(p.Fired()) != 0 {
		t.Fatalf("Fired = %v", p.Fired())
	}
}

func TestPanicMode(t *testing.T) {
	p := NewPlane()
	p.Arm(1, Panic)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		inj, ok := r.(*Injected)
		if !ok || inj.Mode != Panic {
			t.Fatalf("panic value = %#v", r)
		}
	}()
	_ = p.Point("s", false)
}

func TestArmFromFiresPersistently(t *testing.T) {
	p := NewPlane()
	p.ArmFrom(2, Error)
	if err := p.Point("a", true); err != nil {
		t.Fatal("step 1 fired")
	}
	if err := p.Point("b", true); err == nil {
		t.Fatal("step 2 did not fire")
	}
	if err := p.Point("c", true); err == nil {
		t.Fatal("step 3 did not fire (ArmFrom is persistent)")
	}
	if len(p.Fired()) != 2 {
		t.Fatalf("Fired = %v", p.Fired())
	}
}

func TestTraceRecordsPoints(t *testing.T) {
	p := NewPlane()
	p.Trace(true)
	_ = p.Point("x", true)
	_ = p.Point("y", false)
	pts := p.Points()
	if len(pts) != 2 || pts[0] != (PointInfo{Site: "x", CanError: true}) || pts[1] != (PointInfo{Site: "y", CanError: false}) {
		t.Fatalf("Points = %v", pts)
	}
	p.Reset()
	if len(p.Points()) != 0 || p.Steps() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestInstallActive(t *testing.T) {
	if Active() != nil {
		t.Fatal("plane installed at start")
	}
	p := NewPlane()
	Install(p)
	if Active() != p {
		t.Fatal("Active != installed plane")
	}
	Uninstall()
	if Active() != nil {
		t.Fatal("Uninstall left a plane")
	}
}

// The sweep driver's own test: over a synthetic action with known points it
// must arm each (step, mode) the trace makes armable exactly once, honour
// the site and mode filters, and fail the sweep — not pass vacuously —
// when an armed step does not fire or a required site family is missing.

// fakeT stands in for *testing.T: Fatalf records the message and unwinds
// the sweep the way the real one does.
type fakeT struct{ failure string }

func (f *fakeT) Helper()             {}
func (f *fakeT) Logf(string, ...any) {}
func (f *fakeT) Fatalf(format string, args ...any) {
	f.failure = fmt.Sprintf(format, args...)
	panic(f)
}

// sweepFailure runs the regime and returns what the sweep failed with, ""
// if it passed.
func sweepFailure[S any](p *Plane, r Regime[S]) (failure string) {
	f := &fakeT{}
	defer func() {
		if rec := recover(); rec != nil && rec != any(f) {
			panic(rec)
		}
		failure = f.failure
	}()
	Sweep(f, p, r)
	return ""
}

var synthetic = []PointInfo{{"a.x", true}, {"b.y", false}, {"a.z", true}}

// crossing returns an action that crosses the first n synthetic points,
// stopping at the first injected error like a real mutation would.
func crossing(p *Plane, n int) func(struct{}) error {
	return func(struct{}) error {
		for _, pt := range synthetic[:n] {
			if err := p.Point(pt.Site, pt.CanError); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestSweepArmsEachArmableStepOnce(t *testing.T) {
	type visit struct {
		step int
		mode Mode
	}
	for _, tc := range []struct {
		name  string
		sites string
		modes []Mode
		want  []visit
	}{
		{"all", "", nil, []visit{{1, Error}, {1, Panic}, {2, Panic}, {3, Error}, {3, Panic}}},
		{"site filter", "a.", nil, []visit{{1, Error}, {1, Panic}, {3, Error}, {3, Panic}}},
		{"error only", "", []Mode{Error}, []visit{{1, Error}, {3, Error}}},
		{"panic only site", "b.", nil, []visit{{2, Panic}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlane()
			var got []visit
			failure := sweepFailure(p, Regime[struct{}]{
				Fresh:  func() struct{} { return struct{}{} },
				Action: crossing(p, len(synthetic)),
				Sites:  tc.sites,
				Modes:  tc.modes,
				Contract: func(_ struct{}, a Attempt) {
					got = append(got, visit{a.Step, a.Mode})
					if a.Point != synthetic[a.Step-1] {
						t.Errorf("step %d: attempt carries point %v, traced %v", a.Step, a.Point, synthetic[a.Step-1])
					}
					var inj *Injected
					if a.Panicked != (a.Mode == Panic) || a.Mode == Error && !errors.As(a.Err, &inj) {
						t.Errorf("step %d/%v: err=%v panicked=%v", a.Step, a.Mode, a.Err, a.Panicked)
					}
					if len(p.Fired()) != 1 || p.Point("after", true) != nil {
						t.Errorf("step %d/%v: contract did not see exactly one fired fault on a disarmed plane", a.Step, a.Mode)
					}
				},
			})
			if failure != "" {
				t.Fatalf("sweep failed: %s", failure)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("attempts = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSweepFailsInsteadOfPassingVacuously(t *testing.T) {
	p := NewPlane()
	base := func() Regime[struct{}] {
		return Regime[struct{}]{
			Fresh:    func() struct{} { return struct{}{} },
			Action:   crossing(p, len(synthetic)),
			Contract: func(struct{}, Attempt) {},
		}
	}
	for _, tc := range []struct {
		name   string
		regime func() Regime[struct{}]
		want   string
	}{
		{"armed step never reached", func() Regime[struct{}] {
			// The traced run crosses three points, every later run two:
			// step 3 is armed and cannot fire.
			r, runs := base(), 0
			r.Action = func(s struct{}) error {
				if runs++; runs == 1 {
					return crossing(p, 3)(s)
				}
				return crossing(p, 2)(s)
			}
			r.Sites = "a.z"
			return r
		}, "step 3/error (a.z): fault did not fire"},
		{"required site family absent", func() Regime[struct{}] {
			r := base()
			r.Require = []string{"a.", "wal."}
			return r
		}, "no wal.* points"},
		{"no points", func() Regime[struct{}] {
			r := base()
			r.Action = crossing(p, 0)
			return r
		}, "no injection points"},
		{"nothing armable", func() Regime[struct{}] {
			r := base()
			r.Sites, r.Modes = "b.", []Mode{Error}
			return r
		}, "no armable step"},
		{"traced run fails", func() Regime[struct{}] {
			r := base()
			r.Action = func(struct{}) error { return errors.New("boom") }
			return r
		}, "trace run: boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := sweepFailure(p, tc.regime()); !strings.Contains(got, tc.want) {
				t.Fatalf("sweep failure = %q, want one containing %q", got, tc.want)
			}
		})
	}
}

// TestSweepAwaitsBackgroundFaults covers the replication shape: the action
// returns before a goroutine it woke crosses the armed point. Settle makes
// the trace complete; AwaitFire makes the armed run wait for the fault.
func TestSweepAwaitsBackgroundFaults(t *testing.T) {
	p := NewPlane()
	attempts := 0
	failure := sweepFailure(p, Regime[chan struct{}]{
		Fresh: func() chan struct{} { return make(chan struct{}) },
		Action: func(done chan struct{}) error {
			go func() {
				defer close(done)
				defer func() { _ = recover() }()
				_ = p.Point("bg.apply", true)
			}()
			return nil
		},
		Settle:    func(done chan struct{}) { <-done },
		AwaitFire: 10 * time.Second,
		Contract: func(done chan struct{}, a Attempt) {
			attempts++
			if a.Err != nil {
				t.Errorf("background fault surfaced into the action: %v", a.Err)
			}
			<-done
		},
	})
	if failure != "" || attempts != 2 {
		t.Fatalf("failure %q after %d attempts, want 2 clean attempts", failure, attempts)
	}
}
