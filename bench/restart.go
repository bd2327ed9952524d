package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/relation"
)

// commitHistory commits tl.history on a fresh durable stack in dir, syncs
// and closes it, and returns what the log grew by.
func commitHistory(sc *schema, tl tailInputs, dir string, res *result) (walBytes int64, commits int, err error) {
	st, err := openStack(sc, tierDurable, stackOpts{metrics: true, dir: dir})
	if err != nil {
		return 0, 0, err
	}
	c := newClientRun(&clientSpec{name: "history-writer", ops: tl.history}, sc, st)
	ph := runClients([]*clientRun{c}, false)
	res.attempt(ph.ops, ph.failed, ph.firstFailure)
	res.check("history sync", st.dur.Sync())
	return ph.walBytes, ph.commits, st.close()
}

// recoverOnce is one repetition of the recovery leg: durable.Open replays
// the log of the closed directory dir, with no checkpoint, and the rate of
// commits replayed per second is returned with their number. Recovery only
// reads the directory, so repetitions may open the same bytes. When want
// is given, the recovered state must equal it.
func recoverOnce(sc *schema, dir string, want *relation.Relation, res *result) (perS float64, replays uint64, err error) {
	runtime.GC() // every timed leg starts with a collected heap
	st, err := openStack(sc, tierDurable, stackOpts{metrics: true, dir: dir, reopen: true})
	if err != nil {
		return 0, 0, fmt.Errorf("reopen %s: %w", dir, err)
	}
	replays = st.met.Snapshot().RecoveryReplays
	if want != nil {
		res.checkStack("recovered", st, want)
	}
	return float64(replays) / st.openTime.Seconds(), replays, st.close()
}

// replResult is what the replication legs measure (medians over
// repetitions).
type replResult struct {
	catchupPerS   float64 // records per second a reconnected follower applies
	bootstrapPerS float64 // tuples per second a fresh follower loads by snapshot
	ack           latStats
}

// runReplLegs is the two-party part of the traced run: publisher and
// follower each need a thread, so GOMAXPROCS is 2 while it runs and its
// numbers move with whatever else the host is doing (README, "Demoted").
// It commits tl.history on a durable stack of its own; every repetition
// then works on a private copy of that directory:
//
//	    durable.Open replays the log; a publisher attaches
//	(c) fresh followers attach and load a snapshot         → bootstrap
//	    the first sz.Live ops of tl.dark are committed
//	    live, the writer waiting on the replica            → replica ack
//	(b) the follower is severed, the rest of tl.dark is
//	    committed, the link is restored; time until
//	    Applied()==Head()                                  → catch-up
//
// After the reopen and after the catch-up the state must equal the oracle.
func runReplLegs(sc *schema, tl tailInputs, sz sizes, tmp string, res *result) (replResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var out replResult
	history := filepath.Join(tmp, "legs-history")
	if _, _, err := commitHistory(sc, tl, history, res); err != nil {
		return out, err
	}
	defer os.RemoveAll(history)

	afterHistory, final := oracle(tl.afterHistory), oracle(tl.final)
	var catchups, bootstraps []float64
	var acks []uint32
	for rep := 0; rep < sz.TailReps; rep++ {
		dir := filepath.Join(tmp, fmt.Sprintf("legs-%d", rep))
		if err := copyDir(history, dir); err != nil {
			return out, err
		}
		st, err := openStack(sc, tierPublished, stackOpts{metrics: true, dir: dir, reopen: true})
		if err != nil {
			return out, fmt.Errorf("reopen %s: %w", dir, err)
		}
		got, err := st.all()
		res.check("recovered vs oracle", sameState(afterHistory, got, err))

		// Bootstrap: sz.Boots fresh followers one after the other, each
		// loading the whole table by snapshot; the last one stays.
		for b := 0; b < sz.Boots; b++ {
			if st.fol != nil {
				res.check("close follower", st.fol.Close())
			}
			runtime.GC()
			t0 := time.Now()
			if err := st.follow(); err != nil {
				st.close()
				return out, err
			}
			bootstraps = append(bootstraps, float64(st.fol.Len())/time.Since(t0).Seconds())
		}
		live := newClientRun(&clientSpec{name: "live-writer", ops: tl.dark[:sz.Live]}, sc, st)
		live.ackEvery = liveAckEvery
		ph := runClients([]*clientRun{live}, false)
		res.attempt(ph.ops, ph.failed, ph.firstFailure)
		acks = append(acks, live.ackLat...)

		st.link.sever()
		dark := newClientRun(&clientSpec{name: "dark-writer", ops: tl.dark[sz.Live:]}, sc, st)
		ph = runClients([]*clientRun{dark}, false)
		res.attempt(ph.ops, ph.failed, ph.firstFailure)
		behind := st.lag()
		runtime.GC()
		st.link.restore()
		t0 := time.Now()
		if err := st.awaitReplica(); err != nil {
			st.close()
			return out, err
		}
		catchups = append(catchups, float64(behind)/time.Since(t0).Seconds())

		res.checkStack("caught-up", st, final)
		if err := st.close(); err != nil {
			return out, err
		}
		os.RemoveAll(dir)
	}
	out.catchupPerS, out.bootstrapPerS = median(catchups), median(bootstraps)
	out.ack = pooledStats(acks)
	return out, nil
}
