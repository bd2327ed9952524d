package obs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSnapshotAndSub(t *testing.T) {
	var m Metrics
	m.QueryCollect.Add(3)
	m.ExecCompiled.Add(2)
	m.PlanCacheMisses.Add(1)
	m.Inserts.Add(5)
	first := m.Snapshot()
	if first.QueryCollect != 3 || first.ExecCompiled != 2 || first.PlanCacheMisses != 1 || first.Inserts != 5 {
		t.Fatalf("snapshot = %+v", first)
	}
	m.QueryCollect.Add(1)
	m.MutRollbacks.Add(2)
	d := m.Snapshot().Sub(first)
	if d.QueryCollect != 1 || d.MutRollbacks != 2 || d.Inserts != 0 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestSnapshotString(t *testing.T) {
	var m Metrics
	if got := m.Snapshot().String(); got != "(all zero)" {
		t.Fatalf("zero snapshot string = %q", got)
	}
	m.QueryRange.Add(7)
	m.PoisonEvents.Add(1)
	s := m.Snapshot().String()
	for _, want := range []string{"query.range=7", "poison.events=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, want substring %q", s, want)
		}
	}
	if strings.Contains(s, "mut.inserts") {
		t.Errorf("String() = %q renders zero counters", s)
	}
}

// bucketBound is the exclusive upper bound of bucket i; the top bucket
// is unbounded and reports the largest representable duration.
func bucketBound(i int) time.Duration {
	if i >= HistBuckets-1 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{999 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{1500 * time.Microsecond, 11}, // 1500µs: bits.Len(1500) = 11
		{time.Hour, HistBuckets - 1},
	}
	var h Histogram
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.bucket {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.bucket)
		}
		h.Observe(c.d)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	var sum time.Duration
	for _, c := range cases {
		sum += c.d
	}
	if s.Sum != sum {
		t.Fatalf("sum = %v, want %v", s.Sum, sum)
	}
	// Every observation must land below its bucket's upper bound and (for
	// bucket > 0) at or above the previous bound.
	for _, c := range cases {
		if c.d >= bucketBound(c.bucket) {
			t.Errorf("duration %v >= bound %v of its bucket %d", c.d, bucketBound(c.bucket), c.bucket)
		}
		if c.bucket > 0 && c.bucket < HistBuckets-1 && c.d < bucketBound(c.bucket-1) {
			t.Errorf("duration %v below lower bound of bucket %d", c.d, c.bucket)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var inBuckets uint64
	for _, b := range s.Buckets {
		inBuckets += b
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket sum = %d, count = %d", inBuckets, s.Count)
	}
}

func TestRingTracerWraparound(t *testing.T) {
	tr := NewRingTracer(3)
	for i := 0; i < 5; i++ {
		tr.Event(Event{Kind: EvPlanExec, Op: "query", Rows: i})
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Rows != i+2 {
			t.Errorf("event %d rows = %d, want %d (oldest-first order)", i, e.Rows, i+2)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		Kind:   EvPlanExec,
		Op:     "query",
		Detail: "qlr(qunit, left)",
		Rows:   3,
		Dur:    12 * time.Microsecond,
	}
	got := e.String()
	want := `plan-exec op=query rows=3 dur=12µs detail="qlr(qunit, left)"`
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	withErr := Event{Kind: EvUndoReplay, Op: "insert", Rows: 2, Err: errors.New("boom")}
	if got := withErr.String(); got != `undo-replay op=insert rows=2 err="boom"` {
		t.Fatalf("String() = %q", got)
	}
	// Every kind has a name.
	for k := EvPlanCompile; k <= EvPoison; k++ {
		if strings.HasPrefix(k.String(), "EventKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if got := EventKind(200).String(); got != fmt.Sprintf("EventKind(%d)", 200) {
		t.Errorf("unknown kind string = %q", got)
	}
}
