package repl

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/race"
	"repro/internal/relation"
	"repro/internal/systems/ipcap"
	"repro/internal/wal"
)

func flow(local, foreign, n int64) relation.Tuple {
	return relation.NewTuple(
		relation.BindInt("local", local), relation.BindInt("foreign", foreign),
		relation.BindInt("packets", n), relation.BindInt("bytes", n))
}

// openFlows opens a single-cell durable flows table holding about size
// tuples over 64 local hosts. Host 1 always holds exactly 16 flows and the
// hosts are inserted in the same order, so whatever size is, the AVL tree
// over hosts and host 1's hash table have the same shape: an update of a
// host-1 flow walks and copies the same nodes in a 1k table as in a 16k
// table, and any difference in its cost is the tap's, not the engine's.
func openFlows(t *testing.T, size int) *core.DurableRelation {
	t.Helper()
	d, err := durable.Open(t.TempDir(), ipcap.FlowSpec(), ipcap.DefaultFlowDecomp(),
		durable.Options{Create: true, Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	const hosts, hot = 64, 16
	ts := make([]relation.Tuple, 0, size)
	for local := int64(1); local <= hosts; local++ {
		per := int64(hot)
		if local > 1 {
			per = int64(size-hot) / (hosts - 1)
		}
		for foreign := int64(1); foreign <= per; foreign++ {
			ts = append(ts, flow(local, foreign, 0))
		}
	}
	if err := d.InsertBatch(ts); err != nil {
		t.Fatal(err)
	}
	return d
}

// updateHot is one keyed update of a host-1 flow: a commit that removes a
// tuple and inserts one.
func updateHot(t *testing.T, d *core.DurableRelation, n int64) {
	key := relation.NewTuple(relation.BindInt("local", 1), relation.BindInt("foreign", 1))
	if got, err := d.Update(key, relation.NewTuple(relation.BindInt("packets", n), relation.BindInt("bytes", n))); err != nil || got != 1 {
		t.Fatalf("update = %d, %v", got, err)
	}
}

// TestTapCostIsIndependentOfTableSize: what the publisher adds to a commit
// is a sequence number and a slot in the retained window, so one update
// through a published relation costs the same at 1k tuples as at 16k. A
// tap that consults a copy of the table — the mirror this publisher used
// to keep scanned it once per removed tuple — fails the time bound by the
// ratio of the table sizes.
func TestTapCostIsIndependentOfTableSize(t *testing.T) {
	type cost struct {
		allocs float64
		best   time.Duration
	}
	measure := func(size int) cost {
		d := openFlows(t, size)
		newTestPublisher(t, d, PublisherOptions{})
		n := int64(0)
		for ; n < 64; n++ { // past the window's first growth steps
			updateHot(t, d, n)
		}
		c := cost{best: time.Hour}
		c.allocs = testing.AllocsPerRun(200, func() { updateHot(t, d, n); n++ })
		for i := 0; i < 400; i++ {
			start := time.Now()
			updateHot(t, d, n)
			c.best = min(c.best, time.Since(start))
			n++
		}
		return c
	}
	small, large := measure(1<<10), measure(1<<14)
	t.Logf("update through a published relation: %v allocs, best %v at 1k; %v allocs, best %v at 16k",
		small.allocs, small.best, large.allocs, large.best)
	if small.allocs != large.allocs && !race.Enabled {
		t.Errorf("allocations per update: %v at 1k tuples, %v at 16k", small.allocs, large.allocs)
	}
	if large.best > 3*small.best {
		t.Errorf("best update-commit time: %v at 1k tuples, %v at 16k (more than 3×)", small.best, large.best)
	}
}

// TestWriterNotBlockedByParkedBootstrap: a follower that stops reading in
// the middle of its snapshot parks its own session and nobody else. The
// versions it is being sent were pinned, not locked, so a writer commits
// straight past it — and the snapshot, when the follower resumes, is still
// the state at its cut, with the write arriving as the first tail record.
func TestWriterNotBlockedByParkedBootstrap(t *testing.T) {
	d := openFlows(t, 1<<14)
	size := d.Len()
	p := newTestPublisher(t, d, PublisherOptions{})

	client, server := net.Pipe()
	defer client.Close()
	go p.Handle(server)
	fr := newFramer(client, nil, false, false)
	h := hello{version: protocolVersion, resume: 1, name: "flows", cols: ipcap.FlowSpec().Signature()}
	if err := fr.writeFrame(appendHello(nil, h)); err != nil {
		t.Fatal(err)
	}
	payload, err := fr.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	snapSeq, count, err := parseSnapBegin(payload)
	if err != nil || payload[0] != msgSnapBegin {
		t.Fatalf("first message 0x%02x, %v; want snapBegin", payload[0], err)
	}
	if count != uint64(size) {
		t.Fatalf("snapBegin announces %d tuples, want %d", count, size)
	}
	// The pipe is unbuffered: with nobody reading, the session is now
	// blocked writing its first chunk.

	wrote := make(chan error, 1)
	go func() { wrote <- d.Insert(flow(65, 1, 1)) }()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(waitTimeout):
		t.Fatal("Insert blocked behind a parked bootstrap")
	}
	if got := p.Head(); got != snapSeq+1 {
		t.Fatalf("head = %d after the insert, want %d", got, snapSeq+1)
	}

	dec := wal.NewStreamDecoder()
	got := 0
	for {
		if payload, err = fr.readFrame(); err != nil {
			t.Fatal(err)
		}
		if payload[0] != msgSnapChunk {
			break
		}
		ts, err := dec.ReadChunk(payload[1:])
		if err != nil {
			t.Fatal(err)
		}
		if len(ts) > snapChunkTuples {
			t.Fatalf("chunk of %d tuples, limit %d", len(ts), snapChunkTuples)
		}
		got += len(ts)
	}
	if payload[0] != msgSnapEnd || got != size {
		t.Fatalf("snapshot ended with 0x%02x after %d tuples, want snapEnd after %d", payload[0], got, size)
	}
	if payload, err = fr.readFrame(); err != nil {
		t.Fatal(err)
	}
	if payload[0] != msgCommit {
		t.Fatalf("message after the snapshot 0x%02x, want commit", payload[0])
	}
	_, rest, err := parseCommitHead(payload)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dec.ReadCommit(rest)
	if err != nil {
		t.Fatal(err)
	}
	if c.Seq != snapSeq+1 || len(c.Inserted) != 1 || len(c.Removed) != 0 {
		t.Fatalf("first tail record = %+v, want the insert at sequence %d", c, snapSeq+1)
	}
}

// TestRetainedWindowSlides pins the window layout: however many commits
// have passed, History is exactly the last Retain records, and appending to
// a full window allocates nothing — it neither grows nor recopies it.
func TestRetainedWindowSlides(t *testing.T) {
	const retain, commits = 8, 10000
	d := openFlows(t, 1<<10)
	p := newTestPublisher(t, d, PublisherOptions{Retain: retain})
	n := int64(0)
	perCommit := func() float64 {
		return testing.AllocsPerRun(100, func() { updateHot(t, d, n); n++ })
	}
	for ; n < 4*retain; n++ {
		updateHot(t, d, n)
	}
	early := perCommit()
	for ; n < commits; n++ {
		updateHot(t, d, n)
	}
	if late := perCommit(); late != early && !race.Enabled {
		t.Errorf("allocations per commit: %v after %d commits, %v after %d", early, 4*retain, late, commits)
	}

	head := p.Head()
	base, records := p.History()
	if base != head-retain || len(records) != retain {
		t.Fatalf("History: base %d with %d records at head %d; want base %d with %d", base, len(records), head, head-retain, retain)
	}
	for i, c := range records {
		if want := base + 1 + uint64(i); c.Seq != want {
			t.Fatalf("records[%d].Seq = %d, want %d", i, c.Seq, want)
		}
		// The attach epoch is sequence 1, so update n is sequence n+2.
		if len(c.Inserted) != 1 || c.Inserted[0].MustGet("packets").Int() != int64(c.Seq)-2 {
			t.Fatalf("records[%d] (sequence %d) = %+v, not the update committed at that sequence", i, c.Seq, c)
		}
	}
}
