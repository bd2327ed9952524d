package repl

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"slices"
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
	_, seq, rest, err := parseCommit(payload)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wal.ReadCommitPayload(rest, ipcap.FlowSpec().Cols().Names())
	if err != nil {
		t.Fatal(err)
	}
	if seq != snapSeq+1 || len(c.Inserted) != 1 || len(c.Removed) != 0 || !c.Inserted[0].Equal(flow(65, 1, 1)) {
		t.Fatalf("first tail record = %d %+v, want the insert at sequence %d", seq, c, snapSeq+1)
	}
}

// TestRetainedWindowSlides pins the window layout: however many commits
// have passed, History is exactly the last Retain records, and appending to
// a full window allocates nothing — it neither grows nor recopies it. The
// small window lives in one block; the large one spans several, and slides
// across many more, so a block dropped or reused while a retained record
// still lies in it shows up as a record that is not the commit made.
func TestRetainedWindowSlides(t *testing.T) {
	for _, tc := range []struct{ retain, commits int64 }{{8, 10000}, {6000, 36000}} {
		t.Run(fmt.Sprintf("retain=%d", tc.retain), func(t *testing.T) {
			retain, commits := tc.retain, tc.commits
			d := openFlows(t, 1<<10)
			p := newTestPublisher(t, d, PublisherOptions{Retain: int(retain)})
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
			if base != head-uint64(retain) || len(records) != int(retain) {
				t.Fatalf("History: base %d with %d records at head %d; want base %d with %d", base, len(records), head, head-uint64(retain), retain)
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
		})
	}
}

// TestWindowKeepsEveryRetainedRecord drives the window with deltas from one
// tuple to more than a block, and checks as it goes that History is exactly
// the last Retain of them: whichever blocks are opened, dropped or reused,
// no retained record's bytes are overwritten.
func TestWindowKeepsEveryRetainedRecord(t *testing.T) {
	const retain = 40
	p := newTestPublisher(t, openFlows(t, 64), PublisherOptions{Retain: retain})
	rng := rand.New(rand.NewSource(1))
	var fed []wal.Commit
	for i := range 600 {
		n := 1 + rng.Intn(8)
		if rng.Intn(10) == 0 {
			n = 500 + rng.Intn(6000) // up to about 90 KB, past a block
		}
		c := wal.Commit{Inserted: make([]relation.Tuple, n)}
		for j := range c.Inserted {
			c.Inserted[j] = flow(int64(i), int64(j), rng.Int63n(1<<40))
		}
		p.onCommit(c)
		fed = append(fed, c)
		if i%7 != 0 {
			continue
		}
		base, records := p.History()
		want := fed[max(len(fed)-retain, 0):]
		if int(base) != 1+len(fed)-len(want) || len(records) != len(want) {
			t.Fatalf("after %d commits History holds %d records from base %d", len(fed), len(records), base)
		}
		for k, c := range records {
			if !sameTuples(c.Inserted, want[k].Inserted) || len(c.Removed) != 0 {
				t.Fatalf("after %d commits, sequence %d is not the delta committed", len(fed), c.Seq)
			}
		}
	}
}

// TestCommitFrameIsTheRetainedRecord: a session ships each record as the
// bytes the window keeps for it, behind the frame's own header — nothing is
// re-encoded per session — and those bytes decode to the delta committed.
// The first record is larger than a window block, so the records after it
// start a block of their own.
func TestCommitFrameIsTheRetainedRecord(t *testing.T) {
	d := openFlows(t, 1<<10)
	p := newTestPublisher(t, d, PublisherOptions{})
	bulk := make([]relation.Tuple, 6000)
	for i := range bulk {
		bulk[i] = flow(int64(100+i%50), int64(i), int64(i))
	}
	if err := d.InsertBatch(bulk); err != nil {
		t.Fatal(err)
	}
	if n := len(p.retained(2)); n <= windowBlock {
		t.Fatalf("bulk record is %d bytes, want more than a block (%d)", n, windowBlock)
	}
	for n := int64(0); n < 40; n++ {
		updateHot(t, d, n)
	}
	if err := d.Insert(flow(65, 1, -1<<40)); err != nil {
		t.Fatal(err)
	}
	host2, err := d.Remove(relation.NewTuple(relation.BindInt("local", 2)))
	if err != nil {
		t.Fatal(err)
	}
	base, history := p.History()
	head := p.Head()
	if base != 1 || uint64(len(history)) != head-1 {
		t.Fatalf("History: base %d with %d records at head %d", base, len(history), head)
	}

	client, server := net.Pipe()
	defer client.Close()
	go p.Handle(server)
	fr := newFramer(client, nil, false, false)
	// Resume 2 is inside the window: the session goes straight to the tail.
	h := hello{version: protocolVersion, resume: 2, name: "flows", cols: ipcap.FlowSpec().Signature()}
	if err := fr.writeFrame(appendHello(nil, h)); err != nil {
		t.Fatal(err)
	}
	cols := ipcap.FlowSpec().Cols().Names()
	for want := uint64(2); want <= head; want++ {
		payload, err := fr.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		if payload[0] != msgCommit {
			t.Fatalf("message 0x%02x, want commit", payload[0])
		}
		gotHead, seq, rest, err := parseCommit(payload)
		if err != nil || seq != want || gotHead != head {
			t.Fatalf("commit frame: head %d, sequence %d, %v; want head %d, sequence %d", gotHead, seq, err, head, want)
		}
		if kept := p.retained(seq); !bytes.Equal(rest, kept) {
			t.Fatalf("sequence %d: frame carries %x, the window keeps %x", seq, rest, kept)
		}
		c, err := wal.ReadCommitPayload(rest, cols)
		if err != nil {
			t.Fatal(err)
		}
		if w := history[seq-2]; !sameTuples(c.Removed, w.Removed) || !sameTuples(c.Inserted, w.Inserted) {
			t.Fatalf("sequence %d decodes to %+v, History holds %+v", seq, c, w)
		}
	}
	if last := history[len(history)-1]; len(last.Removed) != host2 || len(last.Inserted) != 0 {
		t.Fatalf("last record removes %d and inserts %d tuples, want host 2's flows", len(last.Removed), len(last.Inserted))
	}
}

func sameTuples(a, b []relation.Tuple) bool {
	return slices.EqualFunc(a, b, relation.Tuple.Equal)
}

// TestWindowHoldsPayloadBytes: the window keeps a committed batch as its
// encoded bytes — a tag and a varint per column — not the writer's boxed
// tuples, which cost several times as much.
func TestWindowHoldsPayloadBytes(t *testing.T) {
	const tuples = 4096
	d, err := durable.Open(t.TempDir(), ipcap.FlowSpec(), ipcap.DefaultFlowDecomp(),
		durable.Options{Create: true, Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	p := newTestPublisher(t, d, PublisherOptions{Retain: 2})
	ts := make([]relation.Tuple, tuples)
	for i := range ts {
		ts[i] = flow(int64(1+i%64), int64(1+i/64), int64(i))
	}
	if err := d.InsertBatch(ts); err != nil {
		t.Fatal(err)
	}
	_, records := p.History()
	if len(records) != 1 || !sameTuples(records[0].Inserted, ts) {
		t.Fatalf("History holds %d records, want the batch", len(records))
	}
	per := float64(p.windowBytes()) / tuples
	t.Logf("window: %.1f B per tuple of a %d-tuple batch", per, tuples)
	if per > 24 {
		t.Fatalf("window holds %.1f B per tuple of a %d-tuple batch, want at most 24", per, tuples)
	}
}
