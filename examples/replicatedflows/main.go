// Replicated flow accounting: one durable primary, two read replicas fed
// by log shipping, and a partition healed by sequence-checked catch-up.
//
// The demo exercises the whole replication plane in one binary:
//
//  1. open a durable flow table, attach a repl.Publisher, and connect two
//     followers — one reusing the primary's decomposition verbatim, one
//     running a different adequate decomposition chosen by the static
//     autotuner for a read-heavy mix (the commit stream carries logical
//     tuples, so the replica's layout is its own business);
//  2. stream a burst of writes and watch both replicas apply it live;
//  3. "kill" one follower's link mid-stream, keep writing — the replica
//     keeps serving its last published state while the backlog grows —
//     then restore the link and watch catch-up drain repl.lag to zero;
//  4. check both replicas against the primary tuple-for-tuple.
//
// Run with:
//
//	go run ./examples/replicatedflows
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/autotuner"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/durable"
	"repro/internal/fd"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/wal"
)

// flowSpec declares the flow table: (local, foreign) identifies a flow
// and determines its byte counter.
func flowSpec() *core.Spec {
	return &core.Spec{
		Name: "flows",
		Columns: []core.ColDef{
			{Name: "local", Type: core.IntCol},
			{Name: "foreign", Type: core.IntCol},
			{Name: "bytes", Type: core.IntCol},
		},
		FDs: fd.NewSet(fd.FD{
			From: relation.NewCols("local", "foreign"),
			To:   relation.NewCols("bytes"),
		}),
	}
}

// flowDecomp is the primary's layout: nested hash tables on the key path.
func flowDecomp() *decomp.Decomp {
	return decomp.MustNew([]decomp.Binding{
		decomp.Let("w", []string{"local", "foreign"}, []string{"bytes"},
			decomp.U("bytes")),
		decomp.Let("y", []string{"local"}, []string{"foreign", "bytes"},
			decomp.M(dstruct.HTableKind, "w", "foreign")),
		decomp.Let("x", nil, []string{"local", "foreign", "bytes"},
			decomp.M(dstruct.HTableKind, "y", "local")),
	}, "x")
}

func tup(local, foreign, bytes int64) relation.Tuple {
	return relation.NewTuple(
		relation.BindInt("local", local),
		relation.BindInt("foreign", foreign),
		relation.BindInt("bytes", bytes),
	)
}

// cutDialer wraps the in-process transport with a switch the demo flips
// to simulate a network partition.
type cutDialer struct {
	inner repl.Dialer
	mu    sync.Mutex
	down  bool
	conn  io.Closer
}

func (c *cutDialer) dial() (io.ReadWriteCloser, error) {
	c.mu.Lock()
	down := c.down
	c.mu.Unlock()
	if down {
		return nil, fmt.Errorf("replicatedflows: link is down")
	}
	conn, err := c.inner()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.conn = conn
	c.mu.Unlock()
	return conn, nil
}

func (c *cutDialer) sever() {
	c.mu.Lock()
	c.down = true
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

func (c *cutDialer) restore() {
	c.mu.Lock()
	c.down = false
	c.mu.Unlock()
}

// tuneReadDecomp asks the static autotuner for a layout ranked on this
// replica's read mix — mostly by-local scans — profiled over a sample of
// the primary's current data.
func tuneReadDecomp(sample []relation.Tuple) *decomp.Decomp {
	profile := []autotuner.ProfileOp{
		{Kind: autotuner.ProfileQuery, In: []string{"local"}, Out: []string{"foreign", "bytes"}, Weight: 9},
		{Kind: autotuner.ProfileQuery, In: []string{"local", "foreign"}, Out: []string{"bytes"}, Weight: 1},
	}
	ranked, err := autotuner.PredictRank(flowSpec(), autotuner.Options{MaxEdges: 3}, profile, sample)
	if err != nil || len(ranked) == 0 {
		log.Fatalf("autotune failed: %v", err)
	}
	return ranked[0].Decomp
}

func main() {
	dir, err := os.MkdirTemp("", "replicatedflows-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	d, err := durable.Open(dir, flowSpec(), flowDecomp(), durable.Options{
		Create: true,
		Policy: wal.SyncOff,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	// Preload some history so the autotuner has a sample and the second
	// follower exercises the snapshot-bootstrap path.
	const preload = 256
	for i := int64(0); i < preload; i++ {
		if ierr := d.Insert(tup(i%16, i, (i+1)*100)); ierr != nil {
			log.Fatal(ierr)
		}
	}
	sample, err := d.All()
	if err != nil {
		log.Fatal(err)
	}

	pm := &obs.Metrics{}
	pub, err := repl.NewPublisher(d, repl.PublisherOptions{Metrics: pm, Retain: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer pub.Close()

	// Follower "mirror" reuses the primary's decomposition; its link runs
	// through the cut switch so we can partition it. Follower "tuned"
	// adopts the autotuner's pick for a read-heavy mix.
	cut := &cutDialer{inner: repl.InProcDialer(pub)}
	fmMirror := &obs.Metrics{}
	mirror, err := repl.NewFollower(flowSpec(), cut.dial, repl.FollowerOptions{
		Decomp:  flowDecomp(),
		Metrics: fmMirror,
		Backoff: 2 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mirror.Close()

	tunedDecomp := tuneReadDecomp(sample)
	tuned, err := repl.NewFollower(flowSpec(), repl.InProcDialer(pub), repl.FollowerOptions{
		Decomp:  tunedDecomp,
		Backoff: 2 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tuned.Close()

	const wait = 30 * time.Second
	if err := mirror.WaitFor(pub.Head(), wait); err != nil {
		log.Fatal(err)
	}
	if err := tuned.WaitFor(pub.Head(), wait); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary: %d flows acknowledged, publisher head seq=%d\n", d.Len(), pub.Head())
	fmt.Printf("mirror follower:  primary decomposition, applied seq=%d\n", mirror.Applied())
	fmt.Printf("tuned follower:   autotuned for 90%% by-local reads, applied seq=%d\n", tuned.Applied())
	fmt.Printf("tuned layout:\n%s\n", tunedDecomp)

	// Live streaming: both replicas ride the burst as it happens.
	const burst = 500
	for i := int64(0); i < burst; i++ {
		if ierr := d.Insert(tup(16+i%16, preload+i, i)); ierr != nil {
			log.Fatal(ierr)
		}
	}
	if err := mirror.WaitFor(pub.Head(), wait); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nburst: %d commits shipped live; mirror repl.lag=%d\n", burst, mirror.Lag())

	// The partition: cut the mirror's link mid-stream and keep writing.
	cut.sever()
	const dark = 400
	for i := int64(0); i < dark; i++ {
		if _, uerr := d.Update(
			relation.NewTuple(relation.BindInt("local", i%16), relation.BindInt("foreign", i%preload)),
			relation.NewTuple(relation.BindInt("bytes", 7_000_000+i)),
		); uerr != nil {
			log.Fatal(uerr)
		}
	}
	backlog := pub.Head() - mirror.Applied()
	fmt.Printf("\npartition: link cut, %d commits written dark; mirror serves seq=%d (backlog %d)\n",
		dark, mirror.Applied(), backlog)
	// The replica still answers queries from its last published state.
	stale, err := mirror.Query(relation.NewTuple(relation.BindInt("local", 3)),
		[]string{"foreign", "bytes"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partition: mirror still serving reads (%d flows at local=3, stale by design)\n", len(stale))

	// Heal: the retry loop redials, resumes at applied+1, and drains.
	cut.restore()
	if err := mirror.WaitFor(pub.Head(), wait); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heal: caught up to seq=%d, repl.lag=%d, repl.reconnects=%d\n",
		mirror.Applied(), mirror.Lag(), fmMirror.Snapshot().ReplReconnects)

	// Both replicas must now agree with the primary exactly.
	want, err := d.All()
	if err != nil {
		log.Fatal(err)
	}
	for name, f := range map[string]*repl.Follower{"mirror": mirror, "tuned": tuned} {
		if name == "tuned" {
			if err := tuned.WaitFor(pub.Head(), wait); err != nil {
				log.Fatal(err)
			}
		}
		if err := f.CheckInvariants(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		got, err := f.All()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		cols := relation.NewCols("local", "foreign", "bytes")
		if !relation.FromTuples(cols, got...).Equal(relation.FromTuples(cols, want...)) {
			log.Fatalf("%s replica diverged from the primary", name)
		}
		fmt.Printf("verify: %s replica == primary (%d flows)\n", name, len(got))
	}

	snap := pm.Snapshot()
	fmt.Printf("\npublisher counters: repl.records=%d repl.bytes=%d repl.snapshots=%d\n",
		snap.ReplRecords, snap.ReplBytes, snap.ReplSnapshots)
}
