package harness

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/faultinject"
)

var (
	faultSeeds = flag.Int("faultseeds", 2, "randomized fault schedules per corpus case")
	faultOps   = flag.Int("faultops", 120, "operations per randomized schedule")
)

func withPlane(t *testing.T) *faultinject.Plane {
	t.Helper()
	p := faultinject.NewPlane()
	faultinject.Install(p)
	t.Cleanup(faultinject.Uninstall)
	return p
}

// TestExhaustiveInjection is the harness's core guarantee: for every corpus
// decomposition, a fault at every reachable step of every mutation leaves
// the instance well-formed and α unchanged.
func TestExhaustiveInjection(t *testing.T) {
	for _, c := range InMemoryCases() {
		t.Run(c.Name, func(t *testing.T) {
			p := withPlane(t)
			Exhaust(t, p, c)
		})
	}
}

// TestExhaustiveCOWInjection runs the same corpus through the MVCC tier:
// the failed mutation's fork must be dropped wholesale, leaving the
// published snapshot pointer-identical to the pre-mutation version — never
// a torn hybrid — at the same version number, and a retry must publish.
func TestExhaustiveCOWInjection(t *testing.T) {
	for _, c := range InMemoryCases() {
		t.Run(c.Name, func(t *testing.T) {
			p := withPlane(t)
			ExhaustCOW(t, p, c)
		})
	}
}

// TestRandomizedSchedules replays seed-driven op/fault schedules against a
// mirror oracle; raise -faultseeds (see `make faultinject`) for a longer
// soak.
func TestRandomizedSchedules(t *testing.T) {
	for _, c := range InMemoryCases() {
		t.Run(c.Name, func(t *testing.T) {
			p := withPlane(t)
			for seed := int64(1); seed <= int64(*faultSeeds); seed++ {
				Randomized(t, p, c, seed, *faultOps)
			}
		})
	}
}

// TestConcurrentInjection drives the sharded engine from several goroutines
// with faults being armed concurrently; `make ci-race` reruns it under the
// race detector.
func TestConcurrentInjection(t *testing.T) {
	p := withPlane(t)
	Concurrent(t, p, 4, 300)
}

// TestExhaustiveWALInjection is the durability guarantee: a fault — error
// or kill — at every reachable step of every mutation of a write-ahead-
// logged relation, including the WAL's own append and fsync steps, leaves
// a recoverable directory whose α is a prefix of acknowledgement.
func TestExhaustiveWALInjection(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			p := withPlane(t)
			ExhaustWAL(t, p, c, 0)
		})
	}
}

// TestExhaustiveWALShardedInjection repeats the kill-point regime on the
// sharded durable tier (per-shard log segments) for the scheduler case,
// whose shard key is FD-certified.
func TestExhaustiveWALShardedInjection(t *testing.T) {
	p := withPlane(t)
	ExhaustWAL(t, p, schedulerCase(), 2)
}

// TestWALCheckpointInjection exhausts the checkpoint path: snapshot
// write, rename, and log rotation. No fault may disturb the live α, and
// every crash point must leave a directory that recovers the full state.
func TestWALCheckpointInjection(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			p := withPlane(t)
			ExhaustWALCheckpoint(t, p, c)
		})
	}
}

// TestWALRecoveryInjection exhausts recovery itself: durable.Open with a
// fault at every replay step must fail loudly, and — because replay goes
// through the copy-on-write publish path — a retried Open must still
// recover everything.
func TestWALRecoveryInjection(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			p := withPlane(t)
			ExhaustWALRecovery(t, p, c)
		})
	}
}

// TestExhaustiveReplInjection is the replication guarantee: a fault —
// error or panic — at every repl.send/recv/apply step of every
// replicated mutation kills at most one session, never surfaces into the
// writer, and leaves a follower that catches back up to exactly the
// acknowledged history.
func TestExhaustiveReplInjection(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			p := withPlane(t)
			ExhaustRepl(t, p, c)
		})
	}
}

// TestReplResubscribeInjection exhausts the reconnect path itself: a
// fault at the repl.resubscribe kill-point and at each handshake frame
// of the resubscription following a severed connection must be absorbed
// by the retry loop, with the recovered session proven live.
func TestReplResubscribeInjection(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			p := withPlane(t)
			ExhaustReplResubscribe(t, p, c)
		})
	}
}

// TestReplCatchUpBatchInjection exhausts a catch-up batch: a history
// committed while the link was down arrives in one write and is applied as
// one batch, and a fault at every step of that — between the records of one
// fork included — must leave the replica at exactly records[1..Applied()]
// and able to reconverge. Once on a single-cell follower (the batch is one
// version) and once on a two-cell one (one version per same-cell run).
func TestReplCatchUpBatchInjection(t *testing.T) {
	for _, c := range Cases() {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/cells=%d", c.Name, max(shards, 1)), func(t *testing.T) {
				p := withPlane(t)
				ExhaustReplCatchUp(t, p, c, shards)
			})
		}
	}
}
