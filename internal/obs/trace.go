package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// EventKind classifies a trace event.
type EventKind uint8

// The span events the engine emits. Each maps to a paper construct: plan
// compilation and execution cover the Figure 7 operators, the mutation
// phases cover the two-phase form of §4.4's dinsert/dremove/dupdate, and
// undo replay is the rollback of a cut mutation that failed mid-apply.
const (
	// EvPlanCompile: a plan was promoted into the plan cache and lowered
	// (or declined) by the batch compiler. Detail holds the plan in the
	// paper's notation; Err the compile error on a fallback.
	EvPlanCompile EventKind = iota
	// EvPlanExec: one plan execution. Op names the API operation, Detail
	// the plan, Rows the emitted row count, Dur the execution time.
	EvPlanExec
	// EvMutValidate: the read-only planning pass of a mutation. Err is the
	// validation failure, if any (an FD conflict, say).
	EvMutValidate
	// EvMutApply: the write pass of a mutation. Err is the apply-phase
	// failure that triggered rollback, if any.
	EvMutApply
	// EvUndoReplay: an undo log was replayed after a failed apply. Rows is
	// the number of compensating entries; Err is non-nil when the replay
	// itself failed (the relation poisons).
	EvUndoReplay
	// EvPoison: the relation transitioned to the poisoned read-only state.
	EvPoison
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvPlanCompile:
		return "plan-compile"
	case EvPlanExec:
		return "plan-exec"
	case EvMutValidate:
		return "mut-validate"
	case EvMutApply:
		return "mut-apply"
	case EvUndoReplay:
		return "undo-replay"
	case EvPoison:
		return "poison"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// An Event is one structured span record.
type Event struct {
	Kind   EventKind
	Op     string        // API operation: "insert", "query", ...
	Detail string        // plan notation, mutation phase detail
	Rows   int           // rows emitted / undo entries replayed
	Dur    time.Duration // span duration, when timed
	Err    error         // the failure the span observed, if any
}

// String renders the event as one line of text.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	if e.Op != "" {
		fmt.Fprintf(&b, " op=%s", e.Op)
	}
	if e.Rows > 0 || e.Kind == EvPlanExec || e.Kind == EvUndoReplay {
		fmt.Fprintf(&b, " rows=%d", e.Rows)
	}
	if e.Dur > 0 {
		fmt.Fprintf(&b, " dur=%s", e.Dur)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " detail=%q", e.Detail)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, " err=%q", e.Err)
	}
	return b.String()
}

// A Tracer receives the engine's span events. Implementations must be safe
// for concurrent use (the sharded tier calls from fan-out workers) and
// must not call back into the relation that emitted the event — events
// fire while engine locks are held.
type Tracer interface {
	Event(Event)
}

// RingTracer is a bounded in-memory Tracer: it keeps the most recent
// events in a ring buffer. It is the intended tool for tests and for
// post-mortem "what did the engine just do" inspection.
type RingTracer struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
}

// NewRingTracer returns a tracer retaining the last capacity events
// (minimum 1).
func NewRingTracer(capacity int) *RingTracer {
	if capacity < 1 {
		capacity = 1
	}
	return &RingTracer{buf: make([]Event, capacity)}
}

// Event records e, evicting the oldest event when full.
func (t *RingTracer) Event(e Event) {
	t.mu.Lock()
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *RingTracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Event(nil), t.buf[:t.next]...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// String is the text exporter: the retained events, one per line, oldest
// first.
func (t *RingTracer) String() string {
	var b strings.Builder
	for _, e := range t.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
