package faultinject

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// This file is the kill-point sweep: the one place that runs the
// enumeration protocol every exhaustive fault test in the repo shares.
// Trace a clean run of an action to number its injection points, then for
// each point × {error, panic}: build a fresh subject, arm exactly that
// step, run the action, demand that the fault fired, and hand what happened
// to the caller's contract. A test that wants every failure point of some
// operation enumerated describes a Regime and calls Sweep; it never touches
// Reset/Trace/Points/Arm/Disarm/Fired itself, so a vacuous pass (an armed
// step that was never reached, a site family the trace never crossed)
// cannot be written by accident.

// T is the slice of *testing.T the sweep reports through. It is declared
// here so that this package — which instance and core import in their
// non-test builds — never imports package testing.
type T interface {
	Helper()
	Fatalf(format string, args ...any)
	Logf(format string, args ...any)
}

// An Attempt is one armed run of a regime's action, as the contract sees it.
type Attempt struct {
	Step  int       // the 1-based step that was armed
	Point PointInfo // what the clean trace crossed at that step
	Mode  Mode
	// Err is what the action returned; when the action panicked instead,
	// Panicked is set and Err carries the panic value.
	Err      error
	Panicked bool
}

// RequireContained fails t unless the action answered the fault the way
// every in-process engine tier must: with an error returned through its own
// boundary. An injected panic is contained there, never by the sweep.
func (a Attempt) RequireContained(t T) {
	t.Helper()
	if a.Err == nil {
		t.Fatalf("step %d/%v: injected fault surfaced as success", a.Step, a.Mode)
	}
	if a.Panicked {
		t.Fatalf("step %d/%v: injected fault escaped the engine boundary: %v", a.Step, a.Mode, a.Err)
	}
}

// A Regime describes one sweep over subjects of type S.
type Regime[S any] struct {
	// Fresh builds one seeded, quiescent subject. It runs disarmed, once for
	// the trace and once per attempt; whatever pre-state the contract
	// compares against is captured here.
	Fresh func() S
	// Action is the operation under test.
	Action func(S) error
	// Settle, when set, runs after the traced action and blocks until the
	// goroutines it woke have crossed their points; armed runs wait for the
	// fault itself instead (AwaitFire).
	Settle func(S)
	// Traced, when set, receives the traced subject and its points once
	// tracing is off: release the subject, inspect the trace.
	Traced func(S, []PointInfo)

	// Modes are the fault modes to arm; nil means Error and Panic.
	Modes []Mode
	// Sites restricts arming to steps whose site has this prefix.
	Sites string
	// Require lists site prefixes the trace must cross, each at least once.
	Require []string
	// AwaitFire is how long to wait for the armed fault after the action
	// returns. Zero demands it fired inside the action; replication faults
	// fire in a session goroutine after the writer was acknowledged.
	AwaitFire time.Duration

	// Contract asserts what the regime promises of a faulted run. The fault
	// is known to have fired and the plane is disarmed.
	Contract func(S, Attempt)
}

// Sweep runs the regime: one clean traced run, then one armed run per
// (step, mode) the trace makes armable — error mode only where the point
// can surface an error. It fails t when the trace crossed no points or
// missed a required prefix, when no step was armable, and when an armed
// fault did not fire.
func Sweep[S any](t T, p *Plane, r Regime[S]) {
	t.Helper()
	s := r.Fresh()
	p.Reset()
	p.Trace(true)
	err, _ := Contain(func() error { return r.Action(s) })
	if err == nil && r.Settle != nil {
		r.Settle(s)
	}
	pts := p.Points()
	p.Trace(false)
	p.Reset()
	if err != nil {
		t.Fatalf("trace run: %v", err)
	}
	if r.Traced != nil {
		r.Traced(s, pts)
	}
	if len(pts) == 0 {
		t.Fatalf("trace run passed no injection points")
	}
	for _, prefix := range r.Require {
		if !slices.ContainsFunc(pts, func(pt PointInfo) bool { return strings.HasPrefix(pt.Site, prefix) }) {
			t.Fatalf("trace run passed no %s* points — injection is not reaching that path", prefix)
		}
	}
	modes := r.Modes
	if modes == nil {
		modes = []Mode{Error, Panic}
	}
	attempts := 0
	for i, pt := range pts {
		step := i + 1
		if !strings.HasPrefix(pt.Site, r.Sites) {
			continue
		}
		for _, mode := range modes {
			if mode == Error && !pt.CanError {
				continue
			}
			attempts++
			a := Attempt{Step: step, Point: pt, Mode: mode}
			s := r.Fresh()
			p.Reset()
			p.Arm(int64(step), mode)
			a.Err, a.Panicked = Contain(func() error { return r.Action(s) })
			fired := awaitFired(p, r.AwaitFire)
			p.Disarm()
			if !fired {
				t.Fatalf("step %d/%v (%s): fault did not fire", step, mode, pt.Site)
			}
			r.Contract(s, a)
		}
	}
	if attempts == 0 {
		t.Fatalf("no armable step among %d points (sites %q, modes %v)", len(pts), r.Sites, modes)
	}
	t.Logf("faultinject sweep: %d points / %d armed attempts", len(pts), attempts)
}

// Contain runs f, converting a panic into (error, panicked=true).
func Contain(f func() error) (err error, panicked bool) {
	defer func() {
		if rec := recover(); rec != nil {
			err, panicked = fmt.Errorf("panic: %v", rec), true
		}
	}()
	return f(), false
}

// awaitFired reports whether the armed fault has fired, polling for up to
// wait.
func awaitFired(p *Plane, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for len(p.Fired()) == 0 {
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}
