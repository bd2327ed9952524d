package repl

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// TestSnapshotCutIsExact holds the bootstrap cut — versions pinned under the
// cell fence, head read inside it — to its contract under load: writers
// commit on every cell while followers are severed and resubscribe, and the
// retained window is so small that nearly every subscription is served a
// snapshot taken mid-traffic. A snapshot that includes a delta the tail then
// sends again, or misses one the tail starts after, fails the follower's
// strict apply, which drops a fork on the replica engine: SnapDrops on the
// follower's metrics must stay zero. Writers own disjoint key ranges, so the
// union of their private oracles is the oracle of the acknowledged history
// whatever order the cells committed in. The writers stop at a deadline, and
// as soon as a session on either end panics (the cutter names the panic), so
// a broken session fails the test instead of running to go test's timeout.
// Run under -race by `make ci-race`.
func TestSnapshotCutIsExact(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("cells=%d", max(shards, 1)), func(t *testing.T) { cutIsExact(t, shards) })
	}
}

func cutIsExact(t *testing.T, shards int) {
	const (
		writers    = 4
		maxOps     = 100000 // per writer; they stop as soon as the cut has been exercised
		bootstraps = 40     // mid-traffic snapshots each follower must have loaded by then
		pids       = 6      // a small key space: a lost delta is revisited, and trips, within a few ops
	)
	d := openPrimary(t, shards)
	p := newTestPublisher(t, d, PublisherOptions{Retain: 2})

	// InProcDialer, keeping what Handle returns: a publisher session that
	// panics looks like a dropped link to its follower, so it is named here.
	var pubPanic atomic.Pointer[error]
	dial := func() (io.ReadWriteCloser, error) {
		client, server := net.Pipe()
		go func() {
			if err := p.Handle(server); isSessionPanic(err) {
				pubPanic.CompareAndSwap(nil, &err)
			}
		}()
		return client, nil
	}

	type replica struct {
		f   *Follower
		met *obs.Metrics
		cd  *cutDialer
	}
	layouts := []FollowerOptions{
		{},
		{ShardKey: []string{"ns", "pid"}, Shards: 3},
		{ShardKey: []string{"ns"}, Shards: 2},
	}
	var replicas []replica
	for _, opts := range layouts {
		r := replica{met: &obs.Metrics{}, cd: &cutDialer{inner: dial}}
		opts.Metrics, opts.Backoff = r.met, 100*time.Microsecond
		r.f = newTestFollower(t, schedSpec(), r.cd.dial, opts)
		replicas = append(replicas, r)
	}

	exercised := func() bool {
		for _, r := range replicas {
			if r.met.ReplSnapshots.Load() < bootstraps {
				return false
			}
		}
		return true
	}

	deadline := time.Now().Add(waitTimeout)
	var abort atomic.Bool // a session panicked: the writers stop
	stop := make(chan struct{})
	var bg sync.WaitGroup
	for i, r := range replicas {
		bg.Add(2)
		// The cutter severs the link whenever the replica has made some
		// progress, so sessions are long enough to stream a tail over the
		// snapshot they began with and short enough that there are many.
		go func() {
			defer bg.Done()
			for {
				from := r.f.Applied()
				for wait := 0; r.f.Applied() < from+16 && wait < 20; wait++ {
					select {
					case <-stop:
						return
					case <-time.After(100 * time.Microsecond):
					}
				}
				err := r.f.Err()
				if err != nil && strings.Contains(err.Error(), "sequence gap") {
					t.Errorf("follower session saw %v", err)
				}
				if pe := pubPanic.Load(); pe != nil && !isSessionPanic(err) {
					err = *pe
				}
				if isSessionPanic(err) {
					t.Errorf("follower %d: %v", i, err)
					abort.Store(true)
					return
				}
				r.cd.cut()
			}
		}()
		// Never ahead: applied is read first and head only grows, so a
		// violation seen here is a real one.
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if a, h := r.f.Applied(), p.Head(); a > h {
					t.Errorf("follower applied %d, ahead of publisher head %d", a, h)
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}

	oracles := make([]*relation.Relation, writers)
	var wg sync.WaitGroup
	for w := range oracles {
		oracles[w] = relation.Empty(schedSpec().Cols())
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w) + 1))
			ns, own := int64(w)+1, oracles[w]
			for i := 0; i < maxOps && !exercised() && !abort.Load() && time.Now().Before(deadline); i++ {
				pid := rnd.Int63n(pids) + 1
				key := relation.NewTuple(relation.BindInt("ns", ns), relation.BindInt("pid", pid))
				stored := own.Query(key, schedSpec().Cols())
				switch {
				case len(stored) == 0:
					tup := paperex.SchedulerTuple(ns, pid, rnd.Int63n(2), int64(i))
					if err := d.Insert(tup); err != nil {
						t.Errorf("writer %d insert %v: %v", w, tup, err)
						return
					}
					own.Insert(tup)
				case rnd.Intn(4) == 0:
					if n, err := d.Remove(key); err != nil || n != 1 {
						t.Errorf("writer %d remove %v = %d, %v", w, key, n, err)
						return
					}
					own.Remove(key)
				default:
					u := relation.NewTuple(relation.BindInt("cpu", int64(i)))
					if n, err := d.Update(key, u); err != nil || n != 1 {
						t.Errorf("writer %d update %v = %d, %v", w, key, n, err)
						return
					}
					own.Update(key, u)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if !exercised() && !t.Failed() {
		for i, r := range replicas {
			t.Errorf("follower %d: %d bootstraps when the writers stopped (last session error: %v)", i, r.met.ReplSnapshots.Load(), r.f.Err())
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	want := relation.Empty(schedSpec().Cols())
	for _, own := range oracles {
		want.UnionWith(own)
	}
	all, err := d.All()
	if err != nil {
		t.Fatal(err)
	}
	if got := asRel(t, want.Cols(), all); !got.Equal(want) {
		t.Fatalf("primary diverged from the oracle:\nprimary %v\noracle  %v", got, want)
	}
	snapshots := uint64(0)
	for i, r := range replicas {
		if err := r.f.WaitFor(p.Head(), waitTimeout); err != nil {
			t.Fatalf("follower %d final catch-up: %v (last session error: %v)", i, err, r.f.Err())
		}
		wantSame(t, d, r.f)
		m := r.met.Snapshot()
		if m.SnapDrops != 0 {
			t.Errorf("follower %d: %d strict applies failed (last session error: %v)", i, m.SnapDrops, r.f.Err())
		}
		if m.ReplSnapshots < bootstraps {
			t.Errorf("follower %d bootstrapped %d times over %d reconnects — the cut was barely exercised", i, m.ReplSnapshots, m.ReplReconnects)
		}
		snapshots += m.ReplSnapshots
	}
	t.Logf("%d acknowledged records, %d mid-traffic bootstraps", p.Head()-1, snapshots)
}

// isSessionPanic reports whether err is a contained session panic, on the
// publisher's side or the follower's.
func isSessionPanic(err error) bool {
	return err != nil && strings.Contains(err.Error(), "session panic")
}

// TestCloseRacesPin: Close takes the cell fence (to detach the sink) and
// then the publisher mutex; a bootstrap's pin takes the fence and, inside
// it, the publisher mutex; a committing writer holds one cell and takes
// the publisher mutex. One lock order, so none of them can wedge another.
func TestCloseRacesPin(t *testing.T) {
	d := openPrimary(t, 4)
	for pid := int64(1); pid <= 64; pid++ {
		if err := d.Insert(paperex.SchedulerTuple(1, pid, paperex.StateS, pid)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 50; round++ {
		p, err := NewPublisher(d, PublisherOptions{Retain: 1})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := relation.NewTuple(relation.BindInt("ns", 1), relation.BindInt("pid", int64(round%64)+1))
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := d.Update(key, relation.NewTuple(relation.BindInt("cpu", i))); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}()
		var followers []*Follower
		for i := 0; i < 3; i++ {
			f, err := NewFollower(schedSpec(), InProcDialer(p), FollowerOptions{
				Decomp:  paperex.SchedulerDecomp(),
				Backoff: 50 * time.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			followers = append(followers, f)
		}
		closed := make(chan struct{})
		go func() {
			// Sweep the close across the followers' dial, hello and pin.
			time.Sleep(time.Duration(round) * 20 * time.Microsecond)
			p.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(waitTimeout):
			t.Fatal("Publisher.Close wedged against a bootstrap pin")
		}
		close(stop)
		wg.Wait()
		for _, f := range followers {
			f.Close()
		}
	}
}
