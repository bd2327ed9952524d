package repl

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/wal"
)

// ErrFollowerClosed is returned by WaitFor on a closed Follower.
var ErrFollowerClosed = errors.New("repl: follower is closed")

// A Dialer opens one ordered byte stream to the publisher. The follower
// calls it once per subscription attempt and closes what it returns.
type Dialer func() (io.ReadWriteCloser, error)

// FollowerOptions configures NewFollower. The decomposition — and, when
// ShardKey is set, the shard layout — is the follower's own choice: a
// replica may reuse the primary's decomposition or run one tuned for its
// own read mix, because replication ships logical tuples, not physical
// structures.
type FollowerOptions struct {
	// Decomp is the replica's decomposition (required).
	Decomp *decomp.Decomp

	// ShardKey, when non-empty, makes the replica a ShardedRelation
	// partitioned on these columns; Shards (default core.DefaultShards)
	// and Workers are passed through to core.NewEngine. Empty
	// means a SyncRelation, and Shards without a ShardKey is an error.
	ShardKey []string
	Shards   int
	Workers  int

	// Metrics receives the follower-side replication counters:
	// repl.records and repl.bytes received, the repl.batches they were
	// applied in, repl.snapshots loaded, repl.reconnects, and the
	// repl.lag gauge — plus the replica engine's own query counters.
	Metrics *obs.Metrics

	// Backoff is the pause between subscription attempts (default
	// 5ms). Close interrupts it.
	Backoff time.Duration
}

// Follower maintains a read-only replica of a published relation. It
// subscribes through its Dialer, bootstraps from a snapshot when it has
// no usable prefix, applies the commit records each read of the link
// returned as one batch through the engine's copy-on-write publish path —
// one atomic version per run of records bound for the same cell — and
// resubscribes with sequence-checked catch-up whenever the session dies.
// Its state is always an exact prefix of the publisher's acknowledged
// history; the query surface is lock-free and stays available across
// partitions, reconnects, and Close (serving the last applied prefix).
type Follower struct {
	spec *core.Spec
	dial Dialer
	opts FollowerOptions
	met  *obs.Metrics
	fi   *faultinject.Plane
	cols []string // the hello signature
	// sorted is the relation's column names in sorted order, the order a
	// commit frame's payload holds each tuple's values in.
	sorted []string

	// engine is the replica: a SyncRelation or ShardedRelation behind the
	// one Engine interface. The pointer swaps atomically when a snapshot
	// bootstrap completes, so readers always see either the old consistent
	// state or the new one.
	engine   atomic.Pointer[core.Engine]
	applied  atomic.Uint64 // records[1..applied] are visible to readers
	headSeen atomic.Uint64 // newest publisher head any session reported

	mu      sync.Mutex
	conn    io.Closer // live session's connection, closed to interrupt
	lastErr error
	closed  bool

	// waitCh is non-nil while a WaitFor is parked; the next advance closes
	// and clears it, so an apply with nobody waiting allocates nothing.
	waitMu sync.Mutex
	waitCh chan struct{}

	stop chan struct{}
	done chan struct{}
}

// NewFollower builds an empty replica engine and starts the subscription
// loop. The loop retries forever — partitions are routine, not fatal —
// until Close.
func NewFollower(spec *core.Spec, dial Dialer, opts FollowerOptions) (*Follower, error) {
	f := &Follower{
		spec:   spec,
		dial:   dial,
		opts:   opts,
		met:    opts.Metrics,
		fi:     faultinject.Active(),
		cols:   spec.Signature(),
		sorted: spec.Cols().Names(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if f.opts.Backoff <= 0 {
		f.opts.Backoff = 5 * time.Millisecond
	}
	e, err := f.newEngine()
	if err != nil {
		return nil, err
	}
	f.setEngine(e)
	go f.run()
	return f, nil
}

func (f *Follower) newEngine() (core.Engine, error) {
	e, err := core.NewEngine(f.spec, f.opts.Decomp, core.ShardOptions{
		ShardKey: f.opts.ShardKey,
		Shards:   f.opts.Shards,
		Workers:  f.opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	e.SetMetrics(f.met)
	return e, nil
}

// errStopped tells run that attempt saw the closed flag and the loop
// must exit rather than retry.
var errStopped = errors.New("repl: follower stopped")

// run is the catch-up state machine: subscribe, stream until the session
// dies, note why, back off, resubscribe from applied+1. Every attempt
// after the first counts as a reconnect.
func (f *Follower) run() {
	defer close(f.done)
	for attempt := 0; ; attempt++ {
		select {
		case <-f.stop:
			return
		default:
		}
		if attempt > 0 {
			if f.met != nil {
				f.met.ReplReconnects.Add(1)
			}
			select {
			case <-f.stop:
				return
			case <-time.After(f.opts.Backoff):
			}
		}
		err := f.attempt()
		if errors.Is(err, errStopped) {
			return
		}
		f.noteErr(err)
	}
}

// attempt is one full subscription try: the resubscribe kill-point, the
// dial, and the session. Panics anywhere in it (injected or otherwise)
// are contained here and surface as a failed attempt, so the loop
// retries exactly as for an unreachable publisher.
func (f *Follower) attempt() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("repl: follower attempt panic: %v", rec)
		}
	}()
	// The resubscribe kill-point: an injected fault here models a dial
	// that never completed.
	if f.fi != nil {
		if err := f.fi.Point("repl.resubscribe", true); err != nil {
			return err
		}
	}
	conn, err := f.dial()
	if err != nil {
		return err
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		conn.Close()
		return errStopped
	}
	f.conn = conn
	f.mu.Unlock()
	err = f.session(conn)
	conn.Close()
	f.mu.Lock()
	f.conn = nil
	f.mu.Unlock()
	return err
}

func (f *Follower) noteErr(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// Err reports why the most recent subscription attempt or session ended.
// Diagnostic only — the loop keeps retrying regardless.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}

// session runs one subscription to completion: hello, optional snapshot
// bootstrap, then the commit stream. Any return resubscribes; panics
// (including injected kill-points) are contained and end the session
// like a dropped connection.
func (f *Follower) session(conn io.ReadWriteCloser) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("repl: follower session panic: %v", rec)
		}
	}()
	fr := newFramer(conn, f.met, true, false)
	h := hello{version: protocolVersion, resume: f.applied.Load() + 1, name: f.spec.Name, cols: f.cols}
	if err := fr.writeFrame(appendHello(nil, h)); err != nil {
		return err
	}
	dec := wal.NewStreamDecoder() // snapshot chunks; commit frames are self-contained

	// Snapshot bootstrap state: the pending engine fills chunk by chunk,
	// invisible to readers until snapEnd publishes it with one pointer
	// swap. A session death mid-snapshot just discards it.
	var pending core.Engine
	var pendingSeq uint64

	for {
		payload, err := fr.readFrame()
		if err != nil {
			return err
		}
		if len(payload) == 0 {
			return fmt.Errorf("%w: empty payload", ErrBadFrame)
		}
		switch payload[0] {
		case msgError:
			return fmt.Errorf("repl: publisher ended session: %s", parseErrorMsg(payload))

		case msgSnapBegin:
			seq, _, err := parseSnapBegin(payload)
			if err != nil {
				return err
			}
			if pending, err = f.newEngine(); err != nil {
				return err
			}
			pendingSeq = seq

		case msgSnapChunk:
			if pending == nil {
				return fmt.Errorf("%w: snapshot chunk outside a snapshot", ErrBadFrame)
			}
			ts, err := dec.ReadChunk(payload[1:])
			if err != nil {
				return err
			}
			if err := pending.ApplyCommit(wal.Commit{Seq: pendingSeq, Inserted: ts}); err != nil {
				return err
			}

		case msgSnapEnd:
			if pending == nil {
				return fmt.Errorf("%w: snapshot end outside a snapshot", ErrBadFrame)
			}
			// The apply kill-point sits before the publish: a fault here
			// models a follower that died with the bootstrap staged but
			// not visible, so readers keep the old prefix and the next
			// session bootstraps again.
			if f.fi != nil {
				if err := f.fi.Point("repl.apply", true); err != nil {
					return err
				}
			}
			f.setEngine(pending)
			// Counted before Applied() moves, like a batch of records: a
			// caller WaitFor released must already see the bootstrap.
			if f.met != nil {
				f.met.ReplSnapshots.Add(1)
			}
			f.advance(pendingSeq)
			f.bumpHead(pendingSeq)
			pending = nil
			if f.met != nil {
				f.met.ReplLag.Store(f.Lag())
			}

		case msgCommit:
			if pending != nil {
				return fmt.Errorf("%w: commit during a snapshot", ErrBadFrame)
			}
			if err := f.applyCommits(fr, payload); err != nil {
				return err
			}

		default:
			return fmt.Errorf("%w: unknown message type 0x%02x", ErrBadFrame, payload[0])
		}
	}
}

// applyCommits applies the commit frame in payload and every complete commit
// frame already received behind it as one batch through the engine's
// applier, which publishes each run of records bound for one cell as one
// version. Nothing waits for a batch to fill: a record that arrives alone
// publishes alone. Each record still passes the sequence check and the
// repl.recv and repl.apply kill-points before it is handed over; a fault at
// any of them — an injected panic included, contained here so the applier
// can report — drops the unpublished records, and Applied advances over
// exactly the ones the applier published.
func (f *Follower) applyCommits(fr *framer, payload []byte) error {
	applied := f.applied.Load()
	pulled, head := uint64(0), uint64(0)
	src := func() (c wal.Commit, ok bool, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				ok, err = false, fmt.Errorf("repl: follower apply panic: %v", rec)
			}
		}()
		if payload == nil {
			if typ, buffered := fr.buffered(); !buffered || typ != msgCommit {
				return c, false, nil
			}
			if payload, err = fr.readFrame(); err != nil {
				return c, false, err
			}
		}
		h, seq, rest, err := parseCommit(payload)
		payload = nil
		if err != nil {
			return c, false, err
		}
		if seq != applied+pulled+1 {
			return c, false, fmt.Errorf("repl: sequence gap: applied %d, publisher sent %d", applied+pulled, seq)
		}
		if c, err = wal.ReadCommitPayload(rest, f.sorted); err != nil {
			return c, false, err
		}
		c.Seq = seq
		if f.fi != nil {
			if err := f.fi.Point("repl.apply", true); err != nil {
				return c, false, err
			}
		}
		pulled++
		head = max(head, h)
		return c, true, nil
	}
	n, err := f.eng().ApplyCommits(src)
	if n > 0 {
		// Counted before Applied moves, so whoever WaitFor wakes finds the
		// counters already there.
		if f.met != nil {
			f.met.ReplRecords.Add(uint64(n))
			f.met.ReplBatches.Add(1)
		}
		f.advance(applied + uint64(n))
		f.bumpHead(max(applied+uint64(n), head))
		if f.met != nil {
			f.met.ReplLag.Store(f.Lag())
		}
	}
	return err
}

// eng returns the engine readers and the apply loop currently see.
func (f *Follower) eng() core.Engine { return *f.engine.Load() }

// setEngine publishes e to readers (the parameter is a fresh variable, so
// the stored pointer is never written through again).
func (f *Follower) setEngine(e core.Engine) { f.engine.Store(&e) }

// advance makes records[1..seq] the applied prefix and wakes every parked
// WaitFor. The store comes before the lock and WaitFor checks applied
// under the same lock before parking, so a waiter either sees the new
// value or is parked on the channel closed here.
func (f *Follower) advance(seq uint64) {
	f.applied.Store(seq)
	f.waitMu.Lock()
	if f.waitCh != nil {
		close(f.waitCh)
		f.waitCh = nil
	}
	f.waitMu.Unlock()
}

// bumpHead ratchets headSeen up to seq. headSeen only feeds the lag
// gauge, so the monotonic maximum across sessions is the right value.
func (f *Follower) bumpHead(seq uint64) {
	for {
		cur := f.headSeen.Load()
		if seq <= cur || f.headSeen.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Close stops the subscription loop and waits for it to exit. The
// replica keeps serving queries at its last applied prefix — a closed
// follower is a frozen read-only copy, not a dead one. Idempotent.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		<-f.done
		return nil
	}
	f.closed = true
	close(f.stop)
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	<-f.done
	return nil
}

// Applied returns the sequence number of the newest record visible to
// readers: the replica's state is exactly the publisher's history prefix
// records[1..Applied].
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// Lag returns how many acknowledged records the replica is behind the
// newest publisher head it has heard of. Zero means caught up as of the
// last frame; during a partition the number is a lower bound, since the
// publisher may be acknowledging records the follower cannot hear about.
func (f *Follower) Lag() uint64 {
	// applied first: headSeen only grows, so the later load can only
	// overstate the lag, never understate it.
	applied := f.applied.Load()
	return lagOf(applied, f.headSeen.Load())
}

// lagOf is headSeen − applied, saturating at zero: the session stores
// applied before it ratchets headSeen, so a concurrent reader can catch
// applied one record ahead.
func lagOf(applied, headSeen uint64) uint64 {
	if headSeen < applied {
		return 0
	}
	return headSeen - applied
}

// WaitFor blocks until the replica has applied at least seq, the timeout
// expires, or the follower closes. It parks on a channel the apply loop
// closes, so it returns as soon as the record it waits for is applied.
func (f *Follower) WaitFor(seq uint64, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		f.waitMu.Lock()
		if f.applied.Load() >= seq {
			f.waitMu.Unlock()
			return nil
		}
		if f.waitCh == nil {
			f.waitCh = make(chan struct{})
		}
		woken := f.waitCh
		f.waitMu.Unlock()
		select {
		case <-woken:
		case <-f.done:
			if f.applied.Load() >= seq {
				return nil
			}
			return ErrFollowerClosed
		case <-timer.C:
			return fmt.Errorf("repl: timed out waiting for sequence %d (applied %d)", seq, f.applied.Load())
		}
	}
}

// Query, QueryFunc, QueryRange, Len, All and CheckInvariants are the
// replica's read surface: the same lock-free MVCC reads the primary
// serves, against the follower's own decomposition. As on the primary, a
// row QueryFunc streams is valid only until its callback returns.

func (f *Follower) Query(pat relation.Tuple, out []string) ([]relation.Tuple, error) {
	return f.eng().Query(pat, out)
}

func (f *Follower) QueryFunc(pat relation.Tuple, out []string, fn func(relation.Tuple) bool) error {
	return f.eng().QueryFunc(pat, out, fn)
}

func (f *Follower) QueryRange(pat relation.Tuple, col string, lo, hi *value.Value, out []string) ([]relation.Tuple, error) {
	return f.eng().QueryRange(pat, col, lo, hi, out)
}

func (f *Follower) Len() int { return f.eng().Len() }

func (f *Follower) All() ([]relation.Tuple, error) { return f.eng().All() }

func (f *Follower) CheckInvariants() error { return f.eng().CheckInvariants() }
