package repl

import (
	"bytes"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/wal"
)

func schedSpec() *core.Spec {
	return &core.Spec{
		Name: "processes",
		Columns: []core.ColDef{
			{Name: "ns", Type: core.IntCol},
			{Name: "pid", Type: core.IntCol},
			{Name: "state", Type: core.IntCol},
			{Name: "cpu", Type: core.IntCol},
		},
		FDs: paperex.SchedulerFDs(),
	}
}

// openPrimary opens a fresh durable relation in a temp dir; shards == 0
// is the sync tier.
func openPrimary(t *testing.T, shards int) *core.DurableRelation {
	t.Helper()
	// CheckFDs keeps randomized writers honest: the paper's adequacy
	// argument (and therefore exact-delta replay on a replica) only holds
	// for relations that satisfy their FDs, so the primary must reject a
	// violating insert rather than ship a delta for undefined state.
	opts := durable.Options{Create: true, Policy: wal.SyncOff, CheckFDs: true}
	if shards > 0 {
		opts.Shards = shards
		opts.ShardKey = []string{"ns", "pid"}
	}
	d, err := durable.Open(t.TempDir(), schedSpec(), paperex.SchedulerDecomp(), opts)
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func newTestPublisher(t *testing.T, d *core.DurableRelation, opts PublisherOptions) *Publisher {
	t.Helper()
	p, err := NewPublisher(d, opts)
	if err != nil {
		t.Fatalf("new publisher: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func newTestFollower(t *testing.T, spec *core.Spec, dial Dialer, opts FollowerOptions) *Follower {
	t.Helper()
	if opts.Decomp == nil {
		opts.Decomp = paperex.SchedulerDecomp()
	}
	f, err := NewFollower(spec, dial, opts)
	if err != nil {
		t.Fatalf("new follower: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// asRel folds tuples into a relation for order-insensitive comparison.
func asRel(t *testing.T, cols relation.Cols, ts []relation.Tuple) *relation.Relation {
	t.Helper()
	r := relation.Empty(cols)
	for _, tup := range ts {
		if err := r.Insert(tup); err != nil {
			t.Fatalf("fold %v: %v", tup, err)
		}
	}
	return r
}

// wantSame asserts the follower's α equals the primary's.
func wantSame(t *testing.T, d *core.DurableRelation, f *Follower) {
	t.Helper()
	dts, err := d.All()
	if err != nil {
		t.Fatalf("primary All: %v", err)
	}
	fts, err := f.All()
	if err != nil {
		t.Fatalf("follower All: %v", err)
	}
	cols := d.Spec().Cols()
	if !asRel(t, cols, dts).Equal(asRel(t, cols, fts)) {
		t.Fatalf("replica diverged:\nprimary  %v\nfollower %v", dts, fts)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("follower invariants: %v", err)
	}
}

const waitTimeout = 10 * time.Second

func TestBootstrapSnapshot(t *testing.T) {
	d := openPrimary(t, 0)
	for _, tup := range []relation.Tuple{
		paperex.SchedulerTuple(1, 1, paperex.StateS, 7),
		paperex.SchedulerTuple(1, 2, paperex.StateR, 4),
		paperex.SchedulerTuple(2, 1, paperex.StateS, 5),
	} {
		if err := d.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	p := newTestPublisher(t, d, PublisherOptions{})
	if got := p.Head(); got != 1 {
		t.Fatalf("attach head = %d, want 1 (the attach snapshot)", got)
	}
	fm := &obs.Metrics{}
	f := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{Metrics: fm})
	if err := f.WaitFor(p.Head(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	wantSame(t, d, f)
	if f.Lag() != 0 {
		t.Fatalf("lag = %d after catch-up", f.Lag())
	}
	if got := fm.Snapshot().ReplSnapshots; got != 1 {
		t.Fatalf("repl.snapshots = %d, want 1 (one bootstrap)", got)
	}
}

func TestTailStream(t *testing.T) {
	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{})
	fm := &obs.Metrics{}
	f := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{Metrics: fm})
	if err := f.WaitFor(1, waitTimeout); err != nil {
		t.Fatal(err)
	}
	before := fm.Snapshot()

	if err := d.Insert(paperex.SchedulerTuple(1, 1, paperex.StateS, 7)); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(paperex.SchedulerTuple(1, 2, paperex.StateR, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Update(
		relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 1)),
		relation.NewTuple(relation.BindInt("cpu", 9))); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Remove(relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", 2))); err != nil {
		t.Fatal(err)
	}
	head := p.Head()
	if head != 5 {
		t.Fatalf("head = %d, want 5 (attach + 4 deltas)", head)
	}
	if err := f.WaitFor(head, waitTimeout); err != nil {
		t.Fatal(err)
	}
	wantSame(t, d, f)
	diff := fm.Snapshot().Sub(before)
	if diff.ReplRecords != 4 {
		t.Fatalf("repl.records delta = %d, want 4", diff.ReplRecords)
	}
	if diff.ReplLag != 0 {
		t.Fatalf("repl.lag gauge = %d after catch-up", diff.ReplLag)
	}
	if diff.ReplBytes == 0 {
		t.Fatal("repl.bytes did not count received frames")
	}
}

// TestLagSaturates pins the lag arithmetic: a reader racing the apply loop
// can load applied one record ahead of headSeen, which must read as "caught
// up", not as 2⁶⁴−1 — on the helper directly, and on Lag() and the repl.lag
// gauge polled throughout a live stream (under -race in ci-race).
func TestLagSaturates(t *testing.T) {
	for _, c := range []struct{ applied, headSeen, want uint64 }{
		{applied: 6, headSeen: 5, want: 0},
		{applied: 5, headSeen: 5, want: 0},
		{applied: 2, headSeen: 5, want: 3},
	} {
		if got := lagOf(c.applied, c.headSeen); got != c.want {
			t.Errorf("lagOf(applied %d, head %d) = %d, want %d", c.applied, c.headSeen, got, c.want)
		}
	}

	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{})
	fm := &obs.Metrics{}
	f := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{Metrics: fm})
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			lag, gauge := f.Lag(), fm.ReplLag.Load()
			if head := p.Head(); lag > head || gauge > head {
				t.Errorf("Lag() = %d, repl.lag = %d with publisher head %d", lag, gauge, head)
				return
			}
		}
	}()
	for i := int64(0); i < 2000; i++ {
		if err := d.Insert(paperex.SchedulerTuple(1, i, paperex.StateS, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitFor(p.Head(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-polled
}

// cutDialer wraps a dialer and remembers the live connection so a test
// can sever it, simulating a network partition.
type cutDialer struct {
	inner Dialer
	mu    sync.Mutex
	cur   io.Closer
	down  chan struct{} // non-nil while the link is held down; closed by restore
}

func (c *cutDialer) dial() (io.ReadWriteCloser, error) {
	c.mu.Lock()
	down := c.down
	c.mu.Unlock()
	if down != nil {
		<-down
	}
	conn, err := c.inner()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.cur = conn
	c.mu.Unlock()
	return conn, nil
}

func (c *cutDialer) cut() {
	c.mu.Lock()
	cur := c.cur
	c.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
}

// sever cuts the live connection and holds the link down: dials wait for
// restore instead of racing the writes the test makes in the dark.
func (c *cutDialer) sever() {
	c.mu.Lock()
	c.down = make(chan struct{})
	c.mu.Unlock()
	c.cut()
}

// restore brings a severed link back up. Idempotent.
func (c *cutDialer) restore() {
	c.mu.Lock()
	if c.down != nil {
		close(c.down)
		c.down = nil
	}
	c.mu.Unlock()
}

func TestReconnectCatchUp(t *testing.T) {
	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{})
	cd := &cutDialer{inner: InProcDialer(p)}
	fm := &obs.Metrics{}
	f := newTestFollower(t, schedSpec(), cd.dial, FollowerOptions{Metrics: fm})
	if err := f.WaitFor(1, waitTimeout); err != nil {
		t.Fatal(err)
	}

	if err := d.Insert(paperex.SchedulerTuple(1, 1, paperex.StateS, 7)); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitFor(p.Head(), waitTimeout); err != nil {
		t.Fatal(err)
	}

	// Partition, write while the follower is dark, reconnect.
	cd.sever()
	defer cd.restore() // a follower waiting to dial could not be closed
	for pid := int64(2); pid <= 6; pid++ {
		if err := d.Insert(paperex.SchedulerTuple(1, pid, paperex.StateR, pid)); err != nil {
			t.Fatal(err)
		}
	}
	cd.restore()
	if err := f.WaitFor(p.Head(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	wantSame(t, d, f)
	if got := fm.Snapshot().ReplReconnects; got == 0 {
		t.Fatal("repl.reconnects = 0 after a severed connection")
	}
	// Catch-up resumed from the applied prefix: no second snapshot.
	if got := fm.Snapshot().ReplSnapshots; got != 1 {
		t.Fatalf("repl.snapshots = %d, want 1 (catch-up must stream the tail)", got)
	}
	// The records written in the dark arrived together and were applied
	// together: fewer batches than records.
	if m := fm.Snapshot(); m.ReplRecords != 6 || m.ReplBatches >= m.ReplRecords {
		t.Fatalf("repl.records = %d, repl.batches = %d; want 6 records in fewer batches", m.ReplRecords, m.ReplBatches)
	}
}

// TestKeepingUpAppliesRecordByRecord: nothing waits for a batch to fill. A
// writer that waits for the replica after every commit finds each record
// applied on its own — one batch per record — so replica latency when the
// follower keeps up is what it was before batches existed.
func TestKeepingUpAppliesRecordByRecord(t *testing.T) {
	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{})
	fm := &obs.Metrics{}
	f := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{Metrics: fm})
	if err := f.WaitFor(1, waitTimeout); err != nil {
		t.Fatal(err)
	}
	const records = 8
	for pid := int64(1); pid <= records; pid++ {
		if err := d.Insert(paperex.SchedulerTuple(1, pid, paperex.StateS, pid)); err != nil {
			t.Fatal(err)
		}
		if err := f.WaitFor(p.Head(), waitTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if m := fm.Snapshot(); m.ReplRecords != records || m.ReplBatches != records {
		t.Fatalf("repl.records = %d, repl.batches = %d; want %d of each", m.ReplRecords, m.ReplBatches, records)
	}
}

func TestSlowFollowerCompaction(t *testing.T) {
	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{Retain: 4})

	// A hand-rolled subscriber that is caught up, then stops reading
	// while the primary races ahead of the retained window.
	client, server := net.Pipe()
	defer client.Close()
	go p.Handle(server)
	fr := newFramer(client, nil, false, false)
	h := hello{version: protocolVersion, resume: p.Head() + 1, name: "processes", cols: schedSpec().Signature()}
	if err := fr.writeFrame(appendHello(nil, h)); err != nil {
		t.Fatal(err)
	}
	// One write, one read: proves the session is in its tail loop (a
	// hello still unprocessed could race the flood below into the
	// snapshot path instead).
	if err := d.Insert(paperex.SchedulerTuple(9, 9, paperex.StateR, 9)); err != nil {
		t.Fatal(err)
	}
	first, err := fr.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != msgCommit {
		t.Fatalf("first message 0x%02x, want commit", first[0])
	}

	for pid := int64(1); pid <= 11; pid++ {
		if err := d.Insert(paperex.SchedulerTuple(1, pid, paperex.StateS, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Drain: some commits may have been batched before compaction
	// overtook the session; the stream must end with the refusal.
	var last []byte
	for {
		payload, err := fr.readFrame()
		if err != nil {
			t.Fatalf("session ended without an error frame (last=%v): %v", last, err)
		}
		if payload[0] == msgError {
			if msg := parseErrorMsg(payload); !strings.Contains(msg, "resubscribe") {
				t.Fatalf("compaction refusal = %q, want a resubscribe hint", msg)
			}
			return
		}
		if payload[0] != msgCommit {
			t.Fatalf("unexpected message 0x%02x", payload[0])
		}
		last = append(last[:0], payload...)
	}
}

func TestCompactedResumeBootstrapsAgain(t *testing.T) {
	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{Retain: 4})
	fm := &obs.Metrics{}
	f := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{Metrics: fm})
	if err := f.WaitFor(1, waitTimeout); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// With the follower gone, out-write the retained window, then let a
	// fresh follower resume from its stale prefix.
	for pid := int64(1); pid <= 10; pid++ {
		if err := d.Insert(paperex.SchedulerTuple(2, pid, paperex.StateR, pid)); err != nil {
			t.Fatal(err)
		}
	}
	fm2 := &obs.Metrics{}
	f2 := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{Metrics: fm2})
	if err := f2.WaitFor(p.Head(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	wantSame(t, d, f2)
	if got := fm2.Snapshot().ReplSnapshots; got != 1 {
		t.Fatalf("repl.snapshots = %d, want 1 (compacted resume must re-bootstrap)", got)
	}
}

func TestNeverAheadRefused(t *testing.T) {
	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{})
	client, server := net.Pipe()
	defer client.Close()
	go p.Handle(server)
	fr := newFramer(client, nil, false, false)
	h := hello{version: protocolVersion, resume: 99, name: "processes", cols: schedSpec().Signature()}
	if err := fr.writeFrame(appendHello(nil, h)); err != nil {
		t.Fatal(err)
	}
	payload, err := fr.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != msgError {
		t.Fatalf("message 0x%02x, want error", payload[0])
	}
	if msg := parseErrorMsg(payload); !strings.Contains(msg, "ahead") {
		t.Fatalf("refusal = %q, want a never-ahead refusal", msg)
	}
}

func TestSubscriptionRefusals(t *testing.T) {
	good := hello{version: protocolVersion, resume: 1, name: "processes", cols: schedSpec().Signature()}
	cases := []struct {
		name string
		mut  func(h hello) hello
		want string
	}{
		{"version", func(h hello) hello { h.version = 99; return h }, "version"},
		// Version 1 shipped commits in the stream codec; a v1 follower
		// could not read a positional commit frame.
		{"version-1", func(h hello) hello { h.version = 1; return h }, "protocol version 1, this publisher speaks 2"},
		{"name", func(h hello) hello { h.name = "threads"; return h }, "threads"},
		{"columns", func(h hello) hello { h.cols = []string{"ns:int"}; return h }, "columns"},
		{"resume-zero", func(h hello) hello { h.resume = 0; return h }, "1-based"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := openPrimary(t, 0)
			p := newTestPublisher(t, d, PublisherOptions{})
			client, server := net.Pipe()
			defer client.Close()
			go p.Handle(server)
			fr := newFramer(client, nil, false, false)
			if err := fr.writeFrame(appendHello(nil, tc.mut(good))); err != nil {
				t.Fatal(err)
			}
			payload, err := fr.readFrame()
			if err != nil {
				t.Fatal(err)
			}
			if payload[0] != msgError {
				t.Fatalf("message 0x%02x, want error", payload[0])
			}
			if msg := parseErrorMsg(payload); !strings.Contains(msg, tc.want) {
				t.Fatalf("refusal = %q, want mention of %q", msg, tc.want)
			}
		})
	}
}

func TestShardedFollowerDifferentLayout(t *testing.T) {
	// Primary: 4 shards on the key {ns, pid}. Replica: 2 shards on the
	// non-key {ns} with its own worker pool — replication ships logical
	// tuples, so the layouts are free to differ.
	d := openPrimary(t, 4)
	p := newTestPublisher(t, d, PublisherOptions{})
	f := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{
		ShardKey: []string{"ns"},
		Shards:   2,
	})
	for ns := int64(1); ns <= 3; ns++ {
		for pid := int64(1); pid <= 4; pid++ {
			if err := d.Insert(paperex.SchedulerTuple(ns, pid, paperex.StateS, pid)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := d.Update(
		relation.NewTuple(relation.BindInt("ns", 2), relation.BindInt("pid", 3)),
		relation.NewTuple(relation.BindInt("state", paperex.StateR))); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Remove(relation.NewTuple(relation.BindInt("ns", 3), relation.BindInt("pid", 1))); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitFor(p.Head(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	wantSame(t, d, f)

	// Routed point query on the replica's own shard key.
	got, err := f.Query(relation.NewTuple(relation.BindInt("ns", 2)), []string{"pid"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("replica ns=2 query returned %d rows, want 4", len(got))
	}
}

func TestFollowerServesAfterClose(t *testing.T) {
	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{})
	f := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{})
	if err := d.Insert(paperex.SchedulerTuple(1, 1, paperex.StateS, 7)); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitFor(p.Head(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	applied := f.Applied()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	// The frozen replica keeps serving its last applied prefix.
	if err := d.Insert(paperex.SchedulerTuple(9, 9, paperex.StateR, 1)); err != nil {
		t.Fatal(err)
	}
	if got := f.Applied(); got != applied {
		t.Fatalf("closed follower advanced %d -> %d", applied, got)
	}
	if got := f.Len(); got != 1 {
		t.Fatalf("closed follower Len = %d, want 1", got)
	}
	if err := f.WaitFor(p.Head(), time.Second); err == nil {
		t.Fatal("WaitFor past the frozen prefix should fail on a closed follower")
	}
}

func TestPublisherCloseEndsSessions(t *testing.T) {
	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{})
	f := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{})
	if err := f.WaitFor(1, waitTimeout); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	// The primary keeps accepting writes; they are simply not shipped.
	if err := d.Insert(paperex.SchedulerTuple(1, 1, paperex.StateS, 7)); err != nil {
		t.Fatal(err)
	}
	if got := p.Head(); got != 1 {
		t.Fatalf("closed publisher advanced its head to %d", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// chunkReader serves a byte stream in reads of at most max bytes, recording
// the largest read it was asked for.
type chunkReader struct {
	data    []byte
	max     int
	largest int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	r.largest = max(r.largest, len(p))
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.max)], r.data)
	r.data = r.data[n:]
	return n, nil
}

func (r *chunkReader) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestFramerReadsAhead: the framer hands out the same frames however the
// stream is cut into reads — a byte at a time, across frame boundaries, all
// at once — including one far larger than its read-ahead; several pending
// frames go out in one Write; and with everything already on the link a read
// reaches at most readAhead past the frame it is waiting for, so buffered
// reports a bounded batch of complete frames and then runs dry.
func TestFramerReadsAhead(t *testing.T) {
	var payloads [][]byte
	for i := 0; i < 400; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 1+i%61)
		p[0] = msgCommit
		payloads = append(payloads, p)
	}
	big := bytes.Repeat([]byte{0xAB}, 5*readAhead)
	big[0] = msgSnapChunk
	payloads = append(payloads[:200:200], append([][]byte{big}, payloads[200:]...)...)

	var wire bytes.Buffer
	writes := 0
	out := newFramer(writeCounter{&wire, &writes}, nil, false, false)
	for _, p := range payloads {
		// Framed in two parts, as a commit frame is: its header and its
		// retained record.
		if err := out.appendFrame(p[:len(p)/2], p[len(p)/2:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.flush(); err != nil {
		t.Fatal(err)
	}
	if writes != 1 {
		t.Fatalf("%d pending frames went out in %d writes, want 1", len(payloads), writes)
	}

	for _, chunk := range []int{1, 7, frameHdrSize, 100, readAhead - 1, 1 << 30} {
		src := &chunkReader{data: wire.Bytes(), max: chunk}
		in := newFramer(src, nil, false, false)
		batch, largestBatch := 0, 0
		for i, want := range payloads {
			typ, ok := in.buffered()
			if ok && typ != want[0] {
				t.Fatalf("chunk %d: frame %d buffered as type %#x, want %#x", chunk, i, typ, want[0])
			}
			if ok {
				batch++
			} else {
				batch = 1 // this readFrame goes to the link: a new batch
			}
			largestBatch = max(largestBatch, batch)
			got, err := in.readFrame()
			if err != nil {
				t.Fatalf("chunk %d: frame %d: %v", chunk, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("chunk %d: frame %d came back as %d bytes, want %d", chunk, i, len(got), len(want))
			}
		}
		if _, err := in.readFrame(); err != io.EOF {
			t.Fatalf("chunk %d: read past the last frame = %v, want io.EOF", chunk, err)
		}
		if limit := frameHdrSize + len(big) + readAhead; src.largest > limit {
			t.Fatalf("chunk %d: a read asked for %d bytes, more than the largest frame plus the read-ahead (%d)", chunk, src.largest, limit)
		}
		// Frames here average ~40 bytes: the read-ahead holds about a
		// hundred, and must hold many when the link delivers them.
		if chunk >= readAhead-1 && (largestBatch < 16 || largestBatch > 2*readAhead/frameHdrSize) {
			t.Fatalf("chunk %d: largest run of buffered frames = %d", chunk, largestBatch)
		}
	}

	// A stream that ends inside a frame — in its header, in its payload —
	// is not a clean end.
	for _, cut := range []int{frameHdrSize - 3, frameHdrSize + len(payloads[0]) + frameHdrSize + 1} {
		in := newFramer(&chunkReader{data: wire.Bytes()[:cut], max: 1 << 30}, nil, false, false)
		var err error
		for err == nil {
			_, err = in.readFrame()
		}
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("stream cut at byte %d = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// writeCounter is an io.ReadWriter that counts the writes it passes on.
type writeCounter struct {
	w *bytes.Buffer
	n *int
}

func (c writeCounter) Write(p []byte) (int, error) { *c.n++; return c.w.Write(p) }
func (c writeCounter) Read(p []byte) (int, error)  { return c.w.Read(p) }

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fr := newFramer(&buf, nil, false, false)
	h := hello{version: 3, resume: 42, name: "edges", cols: []string{"src:int", "dst:int"}}
	if err := fr.writeFrame(appendHello(nil, h)); err != nil {
		t.Fatal(err)
	}
	payload, err := fr.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.version != h.version || got.resume != h.resume || got.name != h.name || !slices.Equal(got.cols, h.cols) {
		t.Fatalf("hello round trip: %+v != %+v", got, h)
	}

	buf.Reset()
	if err := fr.writeFrame(appendSnapBegin(nil, 7, 1000)); err != nil {
		t.Fatal(err)
	}
	payload, err = fr.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	seq, n, err := parseSnapBegin(payload)
	if err != nil || seq != 7 || n != 1000 {
		t.Fatalf("snapBegin round trip: %d %d %v", seq, n, err)
	}
}

func TestCorruptFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	fr := newFramer(&buf, nil, false, false)
	if err := fr.writeFrame(appendErrorMsg(nil, "hello there")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0x01 // flip one payload bit
	fr2 := newFramer(bytes.NewBuffer(raw), nil, false, false)
	if _, err := fr2.readFrame(); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt frame err = %v, want CRC rejection", err)
	}

	// An absurd length prefix must be rejected before allocation.
	bad := []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}
	fr3 := newFramer(bytes.NewBuffer(bad), nil, false, false)
	if _, err := fr3.readFrame(); err == nil || !strings.Contains(err.Error(), "length") {
		t.Fatalf("oversized frame err = %v, want length rejection", err)
	}
}

// TestStreamCodecSharesDictionary: the snapshot chunks of one session share
// the stream codec's dictionary, so a later chunk names its columns by the
// ids an earlier one interned.
func TestStreamCodecSharesDictionary(t *testing.T) {
	enc := wal.NewStreamEncoder()
	dec := wal.NewStreamDecoder()
	for i, ts := range [][]relation.Tuple{
		{paperex.SchedulerTuple(1, 1, paperex.StateS, 7), paperex.SchedulerTuple(1, 2, paperex.StateR, 4)},
		{paperex.SchedulerTuple(2, 1, paperex.StateS, 5)},
	} {
		chunk := enc.AppendChunk(nil, ts)
		got, err := dec.ReadChunk(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, ts, relation.Tuple.Equal) {
			t.Fatalf("chunk %d round trip: %v", i, got)
		}
		if i > 0 && bytes.Contains(chunk, []byte("state")) {
			t.Fatalf("chunk %d spells out a column name the first chunk interned", i)
		}
	}
}

// TestWaitForIsSignalled: a WaitFor parks on the apply loop's notify
// channel rather than polling, wakes on the apply that reaches its
// sequence (and not before), and is woken by Close.
func TestWaitForIsSignalled(t *testing.T) {
	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{})
	f := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{})
	if err := f.WaitFor(1, waitTimeout); err != nil {
		t.Fatal(err)
	}
	parked := func() bool {
		f.waitMu.Lock()
		defer f.waitMu.Unlock()
		return f.waitCh != nil
	}
	// wait starts a WaitFor and returns once it is parked.
	wait := func(seq uint64) chan error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f.WaitFor(seq, waitTimeout) }()
		for deadline := time.Now().Add(waitTimeout); !parked(); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("WaitFor never parked")
			}
		}
		return done
	}

	target := p.Head() + 3
	done := wait(target)
	for pid := int64(1); pid <= 3; pid++ {
		select {
		case err := <-done:
			t.Fatalf("WaitFor(%d) returned %v with %d applied", target, err, f.Applied())
		default:
		}
		if err := d.Insert(paperex.SchedulerTuple(1, pid, paperex.StateS, pid)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := f.Applied(); got != target {
		t.Fatalf("WaitFor(%d) returned at applied = %d", target, got)
	}
	if parked() {
		t.Fatal("the apply that woke the waiter left the notify channel armed")
	}

	if err := f.WaitFor(target+1, 5*time.Millisecond); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("WaitFor past the head = %v, want a timeout", err)
	}

	done = wait(target + 1)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != ErrFollowerClosed {
		t.Fatalf("WaitFor across Close = %v, want ErrFollowerClosed", err)
	}
}

// TestShardLayoutOptions is the table over both constructors that take a
// shard layout as loose option fields: durable.Open and NewFollower build
// their engine through core.NewEngine, so a layout either means the same
// thing to both or is refused — a half-specified one is never quietly
// served from a single cell. The one deliberate difference: a follower may
// leave Shards to core.DefaultShards, a durable directory may not (the
// count is its on-disk layout).
func TestShardLayoutOptions(t *testing.T) {
	key := []string{"ns", "pid"}
	noDial := func() (io.ReadWriteCloser, error) { return nil, io.ErrClosedPipe }
	for _, tc := range []struct {
		name          string
		shardKey      []string
		shards        int
		durableCells  int // 0: durable.Open must fail
		followerCells int // 0: NewFollower must fail
	}{
		{"zero options", nil, 0, 1, 1},
		{"key and count", key, 4, 4, 4},
		{"key without count", key, 0, 0, core.DefaultShards},
		{"count without key", nil, 4, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(ctor string, cells int, err error, want int) {
				t.Helper()
				switch {
				case want == 0 && err == nil:
					t.Errorf("%s accepted the layout and built %d cells", ctor, cells)
				case want > 0 && err != nil:
					t.Errorf("%s: %v", ctor, err)
				case want > 0 && cells != want:
					t.Errorf("%s built %d cells, want %d", ctor, cells, want)
				}
			}
			dir := t.TempDir()
			cells := 0
			d, err := durable.Open(dir, schedSpec(), paperex.SchedulerDecomp(), durable.Options{
				Create: true, Policy: wal.SyncOff, ShardKey: tc.shardKey, Shards: tc.shards,
			})
			if err == nil {
				defer d.Close()
				cells = d.NumCells()
			} else if left, _ := os.ReadDir(dir); len(left) > 0 {
				t.Errorf("refused durable.Open left %d entries in the directory", len(left))
			}
			check("durable.Open", cells, err, tc.durableCells)

			cells = 0
			f, err := NewFollower(schedSpec(), noDial, FollowerOptions{
				Decomp: paperex.SchedulerDecomp(), ShardKey: tc.shardKey, Shards: tc.shards,
			})
			if err == nil {
				defer f.Close()
				cells = f.eng().NumCells()
			}
			check("NewFollower", cells, err, tc.followerCells)
		})
	}
}
