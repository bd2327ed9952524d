package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed interval of the traced run, recorded by the harness
// around a call into a layer's public function. Times are nanoseconds
// since the trace began; Parent is the ID of the span that caused this one
// (0 for a root); spans of one client op share its Op number.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts is what obs.Metrics counted between the span's boundaries
	// (pass-level spans only).
	Counts *obs.Snapshot `json:"counts,omitempty"`
}

// spanLog keeps every span in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a span and returns its ID.
func (l *spanLog) add(parent int, name string, op int, start, end time.Time, counts *obs.Snapshot) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Op: op,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds(),
		Counts: counts,
	})
	return id
}

func (l *spanLog) setEnd(id int, end time.Time) {
	l.mu.Lock()
	l.spans[id-1].End = end.Sub(l.epoch).Nanoseconds()
	l.mu.Unlock()
}

func (l *spanLog) setCounts(id int, c *obs.Snapshot) {
	l.mu.Lock()
	l.spans[id-1].Counts = c
	l.mu.Unlock()
}

// time runs f as one root span.
func (l *spanLog) time(name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	l.add(0, name, 0, start, end, nil)
	return end.Sub(start)
}

func (l *spanLog) write(path string, e env, w *workloadDef, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Env      env    `json:"env"`
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{e, w.name, seed, l.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

var opKindNames = [...]string{"insert", "update", "remove", "replace", "point", "collect", "stream", "range"}

// engineTracer is the obs.Tracer the traced run installs through the
// engines' public SetTracer, and the recorder of the per-op spans. The
// client brackets every op with begin/end; engine events arriving in
// between become child spans of that op. The engine's plan-exec events
// carry their own duration; its mut-validate and mut-apply events fire at
// the end of each mutation phase, so their durations are the gaps between
// the op's start and the events.
type engineTracer struct {
	mu   sync.Mutex
	kind opKind
	mark time.Time // start of the op, then the time of its latest event

	exec            [len(opKindNames)][]uint32 // plan-exec durations (ns) by client op kind
	validate, apply []uint32                   // mutation phase durations (ns)

	log   *spanLog
	names [len(opKindNames)]string // span name per op kind: "<rung>.<kind>"
	pass  int                      // the running pass's span
	cur   int                      // the running op's span
	op    int
}

func (t *engineTracer) begin(k opKind, at time.Time) {
	t.mu.Lock()
	t.kind, t.mark = k, at
	t.op++
	t.cur = t.log.add(t.pass, t.names[k], t.op, at, at, nil)
	t.mu.Unlock()
}

func (t *engineTracer) end(at time.Time) {
	t.mu.Lock()
	t.log.setEnd(t.cur, at)
	t.mu.Unlock()
}

// Event implements obs.Tracer.
func (t *engineTracer) Event(e obs.Event) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.mark
	switch e.Kind {
	case obs.EvPlanExec:
		if t.kind.isRead() {
			t.exec[t.kind] = append(t.exec[t.kind], uint32(e.Dur))
		}
		start = now.Add(-e.Dur)
	case obs.EvMutValidate:
		t.validate = append(t.validate, uint32(now.Sub(t.mark)))
		t.mark = now
	case obs.EvMutApply:
		t.apply = append(t.apply, uint32(now.Sub(t.mark)))
		t.mark = now
	default:
		return
	}
	t.log.add(t.cur, e.Kind.String(), t.op, start, now, nil)
}
