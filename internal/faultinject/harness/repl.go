package harness

import (
	"io"
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
// repl.apply step a replicated mutation passes, and ExhaustReplResubscribe
// does the same for the reconnect path (repl.resubscribe plus the
// handshake frames). The contract under every fault is the
// acknowledged-prefix oracle:
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

// replCut is a dialer wrapper that remembers the live connection so the
// resubscribe regime can sever it on demand.
type replCut struct {
	inner repl.Dialer
	mu    sync.Mutex
	cur   io.Closer
}

func (c *replCut) dial() (io.ReadWriteCloser, error) {
	conn, err := c.inner()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.cur = conn
	c.mu.Unlock()
	return conn, nil
}

func (c *replCut) cut() {
	c.mu.Lock()
	cur := c.cur
	c.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
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

func openRepl(t *testing.T, c Case) *replEnv {
	t.Helper()
	d := openWAL(t, t.TempDir(), c, 0)
	pub, err := repl.NewPublisher(d, repl.PublisherOptions{Retain: 1 << 20})
	if err != nil {
		t.Fatalf("%s: publisher: %v", c.Name, err)
	}
	fm := &obs.Metrics{}
	cd := &replCut{inner: repl.InProcDialer(pub)}
	fol, err := repl.NewFollower(c.Spec(), cd.dial, repl.FollowerOptions{
		Decomp:  c.Decomp(),
		Metrics: fm,
		Backoff: time.Millisecond,
	})
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
				Fresh:  func() *replEnv { return openRepl(t, c) },
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
		Fresh: func() *replEnv { return openRepl(t, c) },
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
