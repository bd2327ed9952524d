package harness

import (
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/repl"
)

// This file extends the harness to the replication plane: ExhaustRepl
// injects a fault — error and panic — at every repl.send / repl.recv /
// repl.apply step a replicated mutation passes, ExhaustReplResubscribe
// does the same for the reconnect path (repl.resubscribe plus the
// handshake frames), and ExhaustReplCatchUp for a multi-record catch-up
// batch, where the kill-points sit between records that share a fork. The
// contract under every fault is the acknowledged-prefix oracle:
//
//   - The mutation itself must succeed: replication sits downstream of
//     acknowledgement, so a shipping fault may never surface into the
//     writer.
//
//   - The follower must converge: the fault kills at most one session,
//     catch-up resubscribes from the follower's own applied count, and
//     the replica must reach exactly the primary's post-mutation α with
//     its invariants intact — never a torn delta, never a state beyond
//     the acknowledged history.
//
// Determinism rests on the in-process pipe transport: net.Pipe is
// synchronous, so for a quiesced single-cell primary each replicated
// mutation crosses its points in a fixed order (the wal.* points of the
// mutation, then repl.send, repl.recv, repl.apply), and the step counter
// the plane assigns during the clean trace is stable across runs.

const replWait = 10 * time.Second

// replCut is the follower's dialer: an in-process pipe to the publisher that
// remembers the live connection so a regime can sever it on demand, counts
// the publisher sessions still running, and can hold the link down. A held
// link parks the follower's next dial instead of failing it: a failed dial
// is retried every backoff, each retry crossing repl.resubscribe, and a
// regime that numbers steps cannot have that going on in the background.
type replCut struct {
	pub      *repl.Publisher
	sessions sync.WaitGroup // publisher sessions that have not returned

	mu   sync.Mutex
	cur  io.Closer
	held bool

	parked chan struct{} // a dial has parked on the held link
	admit  chan struct{} // lets one parked dial through
	lifted chan struct{} // closed by lift: the link is up for good
}

func newReplCut(pub *repl.Publisher) *replCut {
	return &replCut{pub: pub, parked: make(chan struct{}), admit: make(chan struct{}), lifted: make(chan struct{})}
}

func (c *replCut) dial() (io.ReadWriteCloser, error) {
	c.mu.Lock()
	held := c.held
	c.mu.Unlock()
	if held {
		select {
		case c.parked <- struct{}{}:
			select {
			case <-c.admit:
			case <-c.lifted:
			}
		case <-c.lifted:
		}
	}
	client, server := net.Pipe()
	c.sessions.Add(1)
	go func() {
		defer c.sessions.Done()
		c.pub.Handle(server)
	}()
	c.mu.Lock()
	c.cur = client
	c.mu.Unlock()
	return client, nil
}

func (c *replCut) cut() {
	c.mu.Lock()
	cur := c.cur
	c.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
}

// sever holds the link down, cuts the live connection, and returns once both
// ends have settled: the publisher's session has returned and the follower's
// retry is parked in its dial, so nothing crosses an injection point until
// the link is restored.
func (c *replCut) sever(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	c.held = true
	c.mu.Unlock()
	c.cut()
	c.awaitParked(t)
	c.sessions.Wait()
}

// awaitParked blocks until the follower's next dial is parked on the held
// link.
func (c *replCut) awaitParked(t *testing.T) {
	t.Helper()
	select {
	case <-c.parked:
	case <-time.After(replWait):
		t.Fatal("the follower never came back to dial the held link")
	}
}

// restore lets the one parked dial through; the link stays held for the
// dial after it.
func (c *replCut) restore() { c.admit <- struct{}{} }

// lift brings the link up for good.
func (c *replCut) lift() {
	c.mu.Lock()
	if c.held {
		c.held = false
		close(c.lifted)
	}
	c.mu.Unlock()
}

// replEnv is one primary + publisher + follower stack, seeded and
// quiesced, ready for a traced or faulted mutation.
type replEnv struct {
	d   *core.DurableRelation
	pub *repl.Publisher
	fol *repl.Follower
	fm  *obs.Metrics
	cd  *replCut
	// rcBefore is the follower's reconnect count at quiescence: a
	// session-killing fault must move it.
	rcBefore uint64
}

// openRepl builds the stack on a single-cell primary. shards == 0 gives the
// follower a single cell too; > 0 shards it that many ways on the case's key
// columns.
func openRepl(t *testing.T, c Case, shards int) *replEnv {
	t.Helper()
	d := openWAL(t, t.TempDir(), c, 0)
	pub, err := repl.NewPublisher(d, repl.PublisherOptions{Retain: 1 << 20})
	if err != nil {
		t.Fatalf("%s: publisher: %v", c.Name, err)
	}
	fm := &obs.Metrics{}
	cd := newReplCut(pub)
	opts := repl.FollowerOptions{
		Decomp:  c.Decomp(),
		Metrics: fm,
		Backoff: time.Millisecond,
	}
	if shards > 0 {
		opts.ShardKey, opts.Shards, opts.Workers = c.Key, shards, 1
	}
	fol, err := repl.NewFollower(c.Spec(), cd.dial, opts)
	if err != nil {
		t.Fatalf("%s: follower: %v", c.Name, err)
	}
	env := &replEnv{d: d, pub: pub, fol: fol, fm: fm, cd: cd}
	seedWAL(t, d, c)
	env.quiesce(t)
	env.rcBefore = fm.Snapshot().ReplReconnects
	return env
}

// quiesce waits until the follower has applied everything the publisher
// acknowledged — after it returns, no replication goroutine has pending
// work and no injection point can fire until the next mutation.
func (e *replEnv) quiesce(t *testing.T) {
	t.Helper()
	if err := e.fol.WaitFor(e.pub.Head(), replWait); err != nil {
		t.Fatalf("quiesce: %v (lag %d, last session error: %v)", err, e.fol.Lag(), e.fol.Err())
	}
}

func (e *replEnv) close() {
	e.cd.lift() // a follower parked in its dial could not be closed
	e.fol.Close()
	e.pub.Close()
	e.d.Close()
}

// checkConverged asserts the full post-fault contract: primary at the
// oracle state, follower an exact copy of it at the acknowledged head,
// invariants intact, and the session death visible as a reconnect.
func checkConverged(t *testing.T, c Case, env *replEnv, want *relation.Relation, label string) {
	t.Helper()
	env.quiesce(t)
	if !alpha(t, c, env.d).Equal(want) {
		t.Fatalf("%s: primary α diverged from the oracle", label)
	}
	if got := alpha(t, c, env.fol); !got.Equal(want) {
		t.Fatalf("%s: replica α is not the acknowledged state:\n%v", label, got)
	}
	if env.fol.Applied() != env.pub.Head() {
		t.Fatalf("%s: replica applied %d != head %d after convergence", label, env.fol.Applied(), env.pub.Head())
	}
	if err := env.fol.CheckInvariants(); err != nil {
		t.Fatalf("%s: replica invariants: %v", label, err)
	}
	if got := env.fm.Snapshot().ReplReconnects; got <= env.rcBefore {
		t.Fatalf("%s: session-killing fault did not surface as a reconnect (%d -> %d)", label, env.rcBefore, got)
	}
}

// ExhaustRepl runs the exhaustive kill-point regime over the replication
// path of every mutation of the case: a fault at every repl.* step, in
// both modes, with the acknowledged-prefix contract asserted after each.
func ExhaustRepl(t *testing.T, p *faultinject.Plane, c Case) {
	for _, mu := range c.engineMuts() {
		t.Run(mu.Name, func(t *testing.T) {
			_, post := walOracles(t, c, mu)
			faultinject.Sweep(t, p, faultinject.Regime[*replEnv]{
				Fresh:  func() *replEnv { return openRepl(t, c, 0) },
				Action: func(env *replEnv) error { return mu.Run(env.d) },
				Settle: func(env *replEnv) { env.quiesce(t) },
				Traced: func(env *replEnv, _ []faultinject.PointInfo) { env.close() },
				// The wal.* steps of the same trace are exhausted by
				// ExhaustWAL; here only the replication plane is under
				// test, so only its steps are armed.
				Sites:     "repl.",
				Require:   []string{"repl.send", "repl.recv", "repl.apply"},
				AwaitFire: replWait,
				Contract: func(env *replEnv, a faultinject.Attempt) {
					// Replication is downstream of acknowledgement: the
					// writer must never see a shipping fault.
					if a.Err != nil {
						t.Fatalf("step %d/%v: replication fault surfaced into the writer: %v", a.Step, a.Mode, a.Err)
					}
					checkConverged(t, c, env, post, "step "+a.Point.Site+"/"+a.Mode.String())
					env.close()
				},
			})
		})
	}
}

// ExhaustReplResubscribe exhausts the reconnect path: the connection is
// severed, and a fault is injected at every step of the resubscription
// that follows — the repl.resubscribe kill-point itself and the
// handshake's hello send/recv. Every faulted attempt must be absorbed by
// the retry loop; a replicated mutation run after the dust settles
// proves the recovered session is live and converges to the same prefix
// contract.
//
// Unlike ExhaustRepl, nothing is mutated while step numbers still
// matter: a writer racing the handshake would interleave its wal.* points
// with the resubscription's points nondeterministically. The traced run
// is exactly cut-to-settle (waitSteady), which is causally ordered by the
// synchronous pipe (resubscribe before hello-send before hello-recv); an
// armed run only waits for its fault, after which the plane is disarmed
// and the contract's mutation may overlap the retried handshake freely.
func ExhaustReplResubscribe(t *testing.T, p *faultinject.Plane, c Case) {
	mu := c.Muts[0]
	_, post := walOracles(t, c, mu)
	faultinject.Sweep(t, p, faultinject.Regime[*replEnv]{
		Fresh: func() *replEnv { return openRepl(t, c, 0) },
		Action: func(env *replEnv) error {
			env.cd.cut()
			return nil
		},
		Settle: func(*replEnv) { waitSteady(t, p) },
		Traced: func(env *replEnv, pts []faultinject.PointInfo) {
			env.quiesce(t)
			env.close()
			for _, pt := range pts {
				if !strings.HasPrefix(pt.Site, "repl.") {
					t.Fatalf("non-replication point %s crossed during a reconnect", pt.Site)
				}
			}
		},
		Require:   []string{"repl.resubscribe"},
		AwaitFire: replWait,
		Contract: func(env *replEnv, a faultinject.Attempt) {
			// The faulted attempt absorbed, the retried session must be
			// live: replicate one mutation through it.
			if err := mu.Run(env.d); err != nil {
				t.Fatalf("step %d/%v: mutation after reconnect: %v", a.Step, a.Mode, err)
			}
			checkConverged(t, c, env, post, "resubscribe step "+a.Point.Site+"/"+a.Mode.String())
			env.close()
		},
	})
}

// catchUpStream is the history ExhaustReplCatchUp commits behind the
// follower's back: every Seed tuple removed, every Batch tuple inserted and
// every Seed tuple inserted again, one single-tuple record each, so each
// record routes whole to one cell of a follower sharded shards ways on the
// case's key. The records are ordered so their cells go two-and-two — runs
// the applier must publish one by one, made of records it must not publish
// one by one. It returns the mutations and the number of same-cell runs they
// form.
func catchUpStream(t *testing.T, c Case, shards int) (stream []Mutation, runs int) {
	t.Helper()
	probe, err := core.NewSharded(c.Spec(), c.Decomp(), core.ShardOptions{ShardKey: c.Key, Shards: shards, Workers: 1})
	if err != nil {
		t.Fatalf("%s: routing probe: %v", c.Name, err)
	}
	// cellOf is the shard of the probe that tup, stored alone, lands on.
	cellOf := func(tup relation.Tuple) int {
		if err := probe.Insert(tup); err != nil {
			t.Fatalf("%s: routing probe: %v", c.Name, err)
		}
		at := -1
		for i := 0; i < shards; i++ {
			if probe.Shard(i).Len() > 0 {
				at = i
			}
		}
		if n, err := probe.Remove(tup); err != nil || n != 1 || at < 0 {
			t.Fatalf("%s: routing probe: %v stored on shard %d, removed %d, %v", c.Name, tup, at, n, err)
		}
		return at
	}
	byCell := make([][]Mutation, shards)
	add := func(tup relation.Tuple, mu Mutation) {
		i := cellOf(tup)
		byCell[i] = append(byCell[i], mu)
	}
	for _, tup := range c.Seed {
		add(tup, removeMut("remove-point", tup))
	}
	for _, tup := range append(slices.Clip(c.Batch), c.Seed...) {
		add(tup, insertMut(tup))
	}
	last := -1
	for len(stream) < len(c.Batch)+2*len(c.Seed) {
		for i := range byCell {
			take := min(2, len(byCell[i]))
			if take > 0 && i != last {
				runs++
				last = i
			}
			stream = append(stream, byCell[i][:take]...)
			byCell[i] = byCell[i][take:]
		}
	}
	return stream, runs
}

// ExhaustReplCatchUp exhausts a catch-up batch. The link is severed and held
// down, a history of at least six records is committed behind the follower's
// back, and the link is restored: the publisher sends the whole history in
// one write and the follower applies it as one batch — one fork and one
// publish per run of records bound for the same cell (shards == 0: a
// single-cell follower, the history is one run; shards > 0: that many cells,
// the runs of catchUpStream). A fault is injected at every repl.* step of
// that catch-up, the kill-points between the records of one run included.
//
// The contract is the acknowledged-prefix oracle at the moment of the fault,
// not only after recovery: with the link held down again the follower is
// quiescent, and its α must equal the history prefix records[1..Applied()]
// exactly — a published state ahead of Applied(), behind it, or holding part
// of a record or of an unpublished run all fail it. Then the link comes up
// for good and the replica must converge to the head.
func ExhaustReplCatchUp(t *testing.T, p *faultinject.Plane, c Case, shards int) {
	stream, runs := catchUpStream(t, c, max(shards, 1))
	if len(stream) < 6 || (shards > 1 && runs < 3) {
		t.Fatalf("%s: catch-up history of %d records in %d runs exercises too little", c.Name, len(stream), runs)
	}
	// prefix returns the oracle of records[1..k] of the publisher's history
	// (sequence 1 is the empty attach state; nothing compacts).
	prefix := func(env *replEnv, k uint64) *relation.Relation {
		base, records := env.pub.History()
		if base != 1 {
			t.Fatalf("history base = %d, want 1", base)
		}
		rr := relation.Empty(c.Spec().Cols())
		for _, rec := range records {
			if rec.Seq > k {
				break
			}
			for _, tup := range rec.Removed {
				if n := rr.Remove(tup); n != 1 {
					t.Fatalf("history record %d removed %d copies of %v", rec.Seq, n, tup)
				}
			}
			for _, tup := range rec.Inserted {
				if err := rr.Insert(tup); err != nil {
					t.Fatalf("history record %d: %v", rec.Seq, err)
				}
			}
		}
		return rr
	}
	// distinct fails t if the history from record `from` on revisits a state:
	// the contract below tells the prefixes Applied() can stop at apart by
	// their α, and a wrong Applied() could hide behind a repeat.
	distinct := func(env *replEnv, from uint64) {
		var seen []*relation.Relation
		for k := from; k <= env.pub.Head(); k++ {
			rr := prefix(env, k)
			if slices.ContainsFunc(seen, rr.Equal) {
				t.Fatalf("%s: history prefix %d repeats an earlier state", c.Name, k)
			}
			seen = append(seen, rr)
		}
	}
	type subject struct {
		*replEnv
		before obs.Snapshot // the follower's counters with the link down
		behind uint64       // Applied() with the link down
	}
	faultinject.Sweep(t, p, faultinject.Regime[*subject]{
		Fresh: func() *subject {
			env := openRepl(t, c, shards)
			env.cd.sever(t)
			for _, mu := range stream {
				if err := mu.Run(env.d); err != nil {
					t.Fatalf("%s: dark %s: %v", c.Name, mu.Name, err)
				}
			}
			return &subject{env, env.fm.Snapshot(), env.fol.Applied()}
		},
		Action: func(s *subject) error {
			s.cd.restore()
			return nil
		},
		Settle: func(s *subject) { s.quiesce(t) },
		Traced: func(s *subject, _ []faultinject.PointInfo) {
			// The sweep below is only about batches if the clean catch-up
			// was one: every record in one apply, one publish per run.
			got := s.fm.Snapshot().Sub(s.before)
			if got.ReplRecords != uint64(len(stream)) || got.ReplBatches != 1 || got.SnapPublishes != uint64(runs) {
				t.Fatalf("clean catch-up applied %d records in %d batches and %d versions, want %d records, 1 batch, %d versions",
					got.ReplRecords, got.ReplBatches, got.SnapPublishes, len(stream), runs)
			}
			distinct(s.replEnv, s.behind)
			s.close()
		},
		Sites:     "repl.",
		Require:   []string{"repl.send", "repl.recv", "repl.apply"},
		AwaitFire: replWait,
		Contract: func(s *subject, a faultinject.Attempt) {
			label := "catch-up step " + a.Point.Site + "/" + a.Mode.String()
			if a.Err != nil {
				t.Fatalf("%s: fault surfaced into the caller: %v", label, a.Err)
			}
			// The fault killed the session; the retry parks on the held
			// link, and until it is let through the follower is still.
			s.cd.awaitParked(t)
			k := s.fol.Applied()
			if k < s.behind || k > s.pub.Head() {
				t.Fatalf("%s: Applied() = %d outside [%d, %d]", label, k, s.behind, s.pub.Head())
			}
			if got, want := alpha(t, c, s.fol), prefix(s.replEnv, k); !got.Equal(want) {
				t.Fatalf("%s: replica at Applied() = %d is not records[1..%d]:\ngot  %v\nwant %v", label, k, k, got, want)
			}
			if err := s.fol.CheckInvariants(); err != nil {
				t.Fatalf("%s: replica invariants at the fault: %v", label, err)
			}
			s.cd.lift()
			checkConverged(t, c, s.replEnv, prefix(s.replEnv, s.pub.Head()), label)
			s.close()
		},
	})
}

// waitSteady polls the plane's step counter until it has been quiet for
// long enough that the reconnect retry loop (1ms backoff) must have
// settled into an established session: the traced reconnect is complete.
func waitSteady(t *testing.T, p *faultinject.Plane) {
	t.Helper()
	deadline := time.Now().Add(replWait)
	last := p.Steps()
	lastChange := time.Now()
	for time.Since(lastChange) < 100*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatal("reconnect did not settle")
		}
		time.Sleep(time.Millisecond)
		if cur := p.Steps(); cur != last {
			last, lastChange = cur, time.Now()
		}
	}
}
