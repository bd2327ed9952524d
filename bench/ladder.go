package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
)

// rungResult is what one traced pass over one rung of the tier ladder
// measures.
type rungResult struct {
	writeP50  float64 // µs, every write op of the ladder stream
	readP99   float64 // µs, tails of the stream's reads and writes
	writeP99  float64
	pointP50  float64 // µs, the stream's point reads replayed on the final state
	opsPerS   float64
	allocs    float64 // bytes allocated per write op, whole pass
	writes    int
	counts    obs.Snapshot // engine counters over the pass (primary side)
	lagP99    float64
	lagMax    float64
	tr        *engineTracer
	failed    int
	attempted int
	firstFail error
}

// ladderPass opens a fresh stack at tier t, preloads it, and runs the
// ladder stream through it with tracing on: per-op spans, the engine's
// own events where the tier exposes SetTracer, lag sampling where there is
// a replica. A second, read-only pass replays the stream's point reads on
// the final state (on the replica, on the replicated rung), so that every
// rung answers the same keys over the same data. The stack is returned
// open: some probes need what the pass left behind.
func ladderPass(sc *schema, in *inputs, t tier, tmp string, log *spanLog, traced bool) (*stack, rungResult, error) {
	var rr rungResult
	st, err := openStack(sc, t, stackOpts{metrics: true, dir: filepath.Join(tmp, "ladder-"+t.String())})
	if err != nil {
		return nil, rr, err
	}
	if err := st.preload(in.preload); err != nil {
		st.close()
		return nil, rr, err
	}
	stream := &in.clients[0]
	c := newClientRun(&clientSpec{name: t.String(), ops: stream.ops}, sc, st)
	var before obs.Snapshot
	start := time.Now()
	if traced {
		rr.tr = newEngineTracer(log, t.String())
		rr.tr.pass = log.add(0, "ladder."+t.String(), 0, start, start, nil)
		st.setTracer(rr.tr)
		c.tr = rr.tr
		before = st.met.Snapshot()
	}
	ph := runClients([]*clientRun{c}, traced)
	if traced {
		counts := st.met.Snapshot().Sub(before)
		rr.counts = counts
		log.setEnd(rr.tr.pass, time.Now())
		log.setCounts(rr.tr.pass, &counts)
		st.setTracer(nil)
	}
	rr.writeP50, rr.writeP99, rr.readP99 = ph.write.p50, ph.write.p99, ph.read.p99
	rr.opsPerS = ph.opsPerS
	rr.writes = ph.write.n
	rr.allocs = float64(ph.allocBytes) / float64(max(ph.write.n, 1))
	rr.lagP99, rr.lagMax = ph.lagP99, ph.lagMx
	rr.failed, rr.attempted, rr.firstFail = ph.failed, ph.ops, ph.firstFailure

	// The read-only pass: the stream's point reads, unchecked because the
	// state has moved on since each was generated.
	var points []op
	for _, o := range stream.ops {
		if o.kind == opPoint {
			o.check = checkNone
			points = append(points, o)
		}
	}
	if len(points) == 0 {
		st.close()
		return nil, rr, fmt.Errorf("ladder stream of %d ops has no point read", len(stream.ops))
	}
	if st.fol != nil {
		if err := st.awaitReplica(); err != nil {
			st.close()
			return nil, rr, err
		}
	}
	rd := newClientRun(&clientSpec{name: t.String() + "-read", replica: t == tierReplicated, ops: points}, sc, st)
	if traced {
		rd.tr = newEngineTracer(log, t.String()+"-read")
		now := time.Now()
		rd.tr.pass = log.add(0, "readladder."+t.String(), 0, now, now, nil)
	}
	rph := runClients([]*clientRun{rd}, false)
	if traced {
		log.setEnd(rd.tr.pass, time.Now())
	}
	rr.pointP50 = rph.read.p50
	rr.failed += rph.failed
	rr.attempted += rph.ops
	return st, rr, nil
}

func newEngineTracer(log *spanLog, rung string) *engineTracer {
	t := &engineTracer{log: log}
	for k, n := range opKindNames {
		t.names[k] = rung + "." + n
	}
	return t
}

// ladder runs the whole tier ladder and reports each layer's self time as
// its rung's median minus the rung below, so the increments sum to the top
// rung by construction. own is the workload's own tier: that rung is run a
// second time untraced, and the ratio of the two throughputs is the
// tracing overhead.
func ladder(w *workloadDef, sc *schema, in *inputs, tmp string, log *spanLog, res *result, after func(st *stack, rr *rungResult) error) error {
	var rungs [tierReplicated + 1]rungResult
	for t := tierBare; t <= tierReplicated; t++ {
		runtime.GC()
		st, rr, err := ladderPass(sc, in, t, tmp, log, true)
		if err != nil {
			return fmt.Errorf("ladder rung %v: %w", t, err)
		}
		res.attempt(rr.attempted, rr.failed, rr.firstFail)
		rungs[t] = rr
		err = after(st, &rr)
		if cerr := st.close(); err == nil {
			err = cerr
		}
		os.RemoveAll(st.dir)
		if err != nil {
			return fmt.Errorf("ladder rung %v: %w", t, err)
		}
	}
	st, plain, err := ladderPass(sc, in, w.tier, tmp, log, false)
	if err != nil {
		return err
	}
	if err := st.close(); err != nil {
		return err
	}
	os.RemoveAll(st.dir)
	res.set("obs.trace_overhead_ratio", plain.opsPerS/rungs[w.tier].opsPerS)

	w50 := func(t tier) float64 { return rungs[t].writeP50 }
	r50 := func(t tier) float64 { return rungs[t].pointP50 }
	res.set("instance.inplace_write_us", w50(tierBare))
	res.set("core.cow_publish_us", w50(tierSync)-w50(tierBare))
	res.set("core.shard_write_us", w50(tierSharded)-w50(tierSync))
	res.set("core.durable_write_us", w50(tierDurable)-w50(tierSharded))
	res.set("repl.sink_us", w50(tierPublished)-w50(tierDurable))
	res.set("repl.ship_us", w50(tierReplicated)-w50(tierPublished))
	res.set("ladder.write_top_us", w50(tierReplicated))
	res.set("core.bare_read_us", r50(tierBare))
	res.set("core.snapshot_read_us", r50(tierSync)-r50(tierBare))
	res.set("core.shard_route_us", r50(tierSharded)-r50(tierSync))
	res.set("repl.replica_read_us", r50(tierReplicated)-r50(tierSharded))
	res.set("ladder.read_top_us", r50(tierReplicated))
	res.set("ladder.own_read_p99_us", rungs[w.tier].readP99)
	res.set("ladder.own_write_p99_us", rungs[w.tier].writeP99)

	sync, bare := rungs[tierSync], rungs[tierBare]
	res.set("core.cow_bytes_per_write", sync.allocs-bare.allocs)
	res.set("core.cow_node_clones_per_write", float64(sync.counts.CowNodeClones)/float64(max(sync.writes, 1)))
	res.set("core.cow_map_clones_per_write", float64(sync.counts.CowMapClones)/float64(max(sync.writes, 1)))
	res.set("core.mut_validate_us", percentile(bare.tr.validate, 0.5)/1e3)
	res.set("core.mut_apply_us", percentile(bare.tr.apply, 0.5)/1e3)

	own := rungs[w.tier].counts
	execs := float64(max(own.ExecPoint+own.ExecCompiled+own.ExecVectorized+own.ExecInterpreted, 1))
	res.set("core.exec_tier_share.point", float64(own.ExecPoint)/execs)
	res.set("core.exec_tier_share.compiled", float64(own.ExecCompiled)/execs)
	res.set("core.exec_tier_share.vectorized", float64(own.ExecVectorized)/execs)
	res.set("core.exec_tier_share.interpreted", float64(own.ExecInterpreted)/execs)
	res.set("core.plancache_hit_share", float64(own.PlanCacheHits)/float64(max(own.PlanCacheHits+own.PlanCacheMisses, 1)))

	dur := rungs[tierDurable].counts
	res.set("wal.fsyncs_per_commit", float64(dur.WalFsyncs)/float64(max(dur.WalAppends, 1)))
	top := rungs[tierReplicated]
	res.set("repl.lag_p99_records", top.lagP99)
	res.set("repl.lag_max_records", top.lagMax)
	return nil
}
