package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/value"
	"repro/internal/wal"
)

// tier is one rung of the engine's tier ladder. Each rung adds exactly one
// layer to the rung below, so the cost of a layer is the difference
// between two rungs driven with the same ops.
type tier int

const (
	tierBare       tier = iota // core.Relation: in-place writes with undo
	tierSync                   // + core.SyncRelation: COW fork and atomic publish
	tierSharded                // + core.ShardedRelation: shard routing
	tierDurable                // + core.DurableRelation: WAL encode and append
	tierPublished              // + repl.Publisher: commit sink and mirror
	tierReplicated             // + repl.Follower over a socket: ship and apply
)

var tierNames = [...]string{"bare", "sync", "sharded", "durable", "published", "replicated"}

func (t tier) String() string { return tierNames[t] }

const (
	numShards = 2
	// retainAll keeps every commit of a run in the publisher's history:
	// the WAL and apply probes replay it, and a severed follower must
	// catch up from the log rather than fall back to a snapshot.
	retainAll = 1 << 22
	replWait  = 60 * time.Second
)

// reader and writer are the slices of the engines' public API a client
// uses; every tier (and the follower, for reads) implements them as is.
type reader interface {
	Query(pat relation.Tuple, out []string) ([]relation.Tuple, error)
	QueryFunc(pat relation.Tuple, out []string, f func(relation.Tuple) bool) error
	QueryRange(pat relation.Tuple, col string, lo, hi *value.Value, out []string) ([]relation.Tuple, error)
}

type writer interface {
	Insert(t relation.Tuple) error
	Remove(pat relation.Tuple) (int, error)
	Update(pat, u relation.Tuple) (int, error)
}

type engine interface {
	reader
	writer
	Len() int
	CheckInvariants() error
}

// stack is one assembled engine at some tier, with whichever of its parts
// exist. The primary is always reachable as eng; replica is the follower's
// read surface on tierReplicated.
type stack struct {
	sc   *schema
	tier tier
	eng  engine
	all  func() ([]relation.Tuple, error)

	rel *core.Relation
	syn *core.SyncRelation
	shr *core.ShardedRelation
	dur *core.DurableRelation
	pub *repl.Publisher
	fol *repl.Follower

	met, folMet *obs.Metrics
	dir         string
	openTime    time.Duration // durable.Open's wall time (recovery, on a reopen)
	closed      bool
	ln          net.Listener
	served      chan struct{}
	link        *gate
	transport   string
}

// stackOpts are the knobs that differ between workloads.
type stackOpts struct {
	metrics bool
	dir     string // durable tiers: directory to create or reopen
	reopen  bool   // open an existing directory instead of creating one
}

func (sc *schema) shardOpts() core.ShardOptions {
	// Workers: 1 keeps a fan-out on the calling goroutine: two clients on
	// a two-core host leave no idle core for fan-out workers.
	return core.ShardOptions{ShardKey: sc.cols[:sc.nkey], Shards: numShards, Workers: 1}
}

// openStack assembles a fresh engine at the given tier.
func openStack(sc *schema, t tier, o stackOpts) (*stack, error) {
	s := &stack{sc: sc, tier: t, dir: o.dir}
	if o.metrics {
		s.met = &obs.Metrics{}
	}
	switch {
	case t <= tierSync:
		r, err := core.New(sc.spec, sc.dec)
		if err != nil {
			return nil, err
		}
		s.rel = r
		if s.met != nil {
			r.SetMetrics(s.met)
		}
		s.eng, s.all = r, r.All
		if t == tierSync {
			s.syn = core.NewSync(r)
			s.eng = s.syn
			s.all = func() ([]relation.Tuple, error) { return s.syn.Snapshot().All() }
		}
	case t == tierSharded:
		sr, err := core.NewSharded(sc.spec, sc.dec, sc.shardOpts())
		if err != nil {
			return nil, err
		}
		if s.met != nil {
			sr.SetMetrics(s.met)
		}
		s.shr, s.eng, s.all = sr, sr, sr.All
	default:
		so := sc.shardOpts()
		t0 := time.Now()
		d, err := durable.Open(o.dir, sc.spec, sc.dec, durable.Options{
			Create:   !o.reopen,
			Policy:   wal.SyncInterval,
			Shards:   so.Shards,
			ShardKey: so.ShardKey,
			Workers:  so.Workers,
			Metrics:  s.met,
		})
		if err != nil {
			return nil, err
		}
		s.openTime = time.Since(t0)
		s.dur, s.eng, s.all = d, d, d.All
		if t >= tierPublished {
			if err := s.publish(); err != nil {
				s.close()
				return nil, err
			}
		}
		if t == tierReplicated {
			if err := s.follow(); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	return s, nil
}

// publish attaches a publisher serving a loopback socket.
func (s *stack) publish() error {
	pub, err := repl.NewPublisher(s.dur, repl.PublisherOptions{Retain: retainAll, Metrics: s.met})
	if err != nil {
		return err
	}
	s.pub = pub
	// TCP loopback is the transport the benchmark is defined on; a sandbox
	// without a usable loopback interface gets a unix socket inside the
	// run's own directory, and the stamp says so.
	s.transport = "tcp"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.transport = "unix"
		ln, err = net.Listen("unix", filepath.Join(s.dir, "repl.sock"))
		if err != nil {
			return err
		}
	}
	s.ln = ln
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = pub.Serve(ln) // returns when close() shuts the listener
	}()
	return nil
}

// follow attaches a follower through a severable link and waits for its
// bootstrap.
func (s *stack) follow() error {
	if s.met != nil {
		s.folMet = &obs.Metrics{}
	}
	s.link = &gate{inner: s.dialer()}
	fol, err := s.newFollower(s.link.dial, s.folMet)
	if err != nil {
		return err
	}
	s.fol = fol
	return s.awaitReplica()
}

// dialer connects to the stack's publisher socket.
func (s *stack) dialer() repl.Dialer {
	return repl.NetDialer(s.ln.Addr().Network(), s.ln.Addr().String())
}

// newFollower starts a follower with the primary's decomposition and
// shard layout.
func (s *stack) newFollower(dial repl.Dialer, met *obs.Metrics) (*repl.Follower, error) {
	so := s.sc.shardOpts()
	return repl.NewFollower(s.sc.spec, dial, repl.FollowerOptions{
		Decomp:   s.sc.dec,
		ShardKey: so.ShardKey,
		Shards:   so.Shards,
		Workers:  so.Workers,
		Metrics:  met,
		Backoff:  time.Millisecond,
	})
}

// awaitReplica waits until the follower has applied everything the primary
// has acknowledged. It polls Applied() every 50 µs: WaitFor sleeps in
// 200 µs steps, and a busy spin would hold one of the two cores against
// the publisher session and the follower, which both need one.
func (s *stack) awaitReplica() error {
	head := s.pub.Head()
	deadline := time.Now().Add(replWait)
	for s.fol.Applied() < head {
		time.Sleep(50 * time.Microsecond)
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at %d of %d: %v", s.fol.Applied(), head, s.fol.Err())
		}
	}
	return nil
}

// lag is the replica's distance behind the primary in records, saturating
// at zero. (Follower.Lag subtracts two racing atomics and can underflow.)
func (s *stack) lag() uint64 {
	head, applied := s.pub.Head(), s.fol.Applied()
	if applied >= head {
		return 0
	}
	return head - applied
}

// preload bulk-loads rows before the measured region: in chunks through
// InsertBatch where the tier has it, tuple by tuple into the bare relation
// otherwise. On the sync tier that relation is the version SyncRelation
// currently publishes; nothing reads or forks it before the preload ends,
// so loading it in place is safe and saves a COW fork per tuple.
func (s *stack) preload(rows []row) error {
	const chunk = 4096
	batch := s.batcher()
	for len(rows) > 0 {
		n := min(chunk, len(rows))
		ts := make([]relation.Tuple, n)
		for i := range ts {
			ts[i] = s.sc.tuple(s.sc.all, &rows[i])
		}
		rows = rows[n:]
		if batch != nil {
			if err := batch(ts); err != nil {
				return err
			}
			continue
		}
		for _, t := range ts {
			if err := s.rel.Insert(t); err != nil {
				return err
			}
		}
	}
	if s.rel != nil {
		s.rel.Reprofile()
	}
	if s.fol != nil {
		return s.awaitReplica()
	}
	return nil
}

func (s *stack) batcher() func([]relation.Tuple) error {
	switch {
	case s.dur != nil:
		return s.dur.InsertBatch
	case s.shr != nil:
		return s.shr.InsertBatch
	}
	return nil
}

// setTracer installs t on the tiers that expose SetTracer; the durable
// tiers build their engine inside durable.Open and expose none.
func (s *stack) setTracer(t obs.Tracer) bool {
	switch {
	case s.syn != nil:
		s.syn.SetTracer(t)
	case s.rel != nil:
		s.rel.SetTracer(t)
	case s.shr != nil:
		s.shr.SetTracer(t)
	default:
		return false
	}
	return true
}

// walBytes is the size of every log file of a durable stack.
func (s *stack) walBytes() int64 {
	var n int64
	for i := 0; i < s.dur.NumCells(); i++ {
		n += s.dur.Log(i).Size()
	}
	return n
}

// close tears the stack down in dependency order and waits for every
// goroutine it started. Closing twice is harmless.
func (s *stack) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	if s.fol != nil {
		errs = append(errs, s.fol.Close())
	}
	if s.pub != nil {
		errs = append(errs, s.pub.Close())
	}
	if s.ln != nil {
		s.ln.Close()
		<-s.served
	}
	if s.dur != nil {
		errs = append(errs, s.dur.Close())
	}
	return errors.Join(errs...)
}

// gate is a dialer with a switch: sever drops the live connection and
// refuses redials until restore, which is how the restart workload keeps a
// follower dark while the primary writes ahead.
type gate struct {
	inner repl.Dialer
	mu    sync.Mutex
	shut  bool
	cur   io.Closer
}

func (g *gate) dial() (io.ReadWriteCloser, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.shut {
		return nil, errors.New("bench: link is down")
	}
	c, err := g.inner()
	if err != nil {
		return nil, err
	}
	g.cur = c
	return c, nil
}

func (g *gate) sever() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.shut = true
	if g.cur != nil {
		g.cur.Close()
	}
}

func (g *gate) restore() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.shut = false
}

// copyDir copies a durable directory tree (regular files only), giving
// each restart repetition its own bytes to recover from.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}
