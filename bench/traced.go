package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// runTraced is the traced run: it never reports an end-to-end number. It
// drives the workload's ladder-size stream through every rung of the tier
// ladder with spans and the engine tracer on, runs the single-layer probes
// on what the rungs leave behind and the two-party replication legs
// (bootstrap, replica ack, catch-up), and writes every span to
// out/trace-<workload>.json.
func runTraced(w *workloadDef, seed int64, sz sizes, tmp string) (*result, error) {
	res := newResult(w, seed, sz, true)
	clock := time.Now()
	log := newSpanLog()
	sc, _, err := loadSchema(w.specFile, w.decomp, w.keyCols)
	if err != nil {
		return nil, err
	}
	// The ladder stream: the workload's own generator at ladder size.
	lsz := sz
	lsz.Ops, lsz.ReaderOps = sz.LadderOps, 1
	if sz.Grid > 0 {
		lsz.Grid, lsz.Lookups = sz.LadderGrid, sz.LadderOps/4
	}
	in := w.gen(sc, lsz, seed)
	res.phase("generate", &clock)

	if err := probeSynthesis(w, sc, log, res); err != nil {
		return nil, err
	}
	probeContainers(res)
	if err := probeMetricsCost(sc, in, res); err != nil {
		return nil, err
	}
	res.phase("probes", &clock)

	err = ladder(w, sc, in, tmp, log, res, func(st *stack, rr *rungResult) error {
		switch st.tier {
		case tierBare:
			return probeQueryPath(st, in.final, log, res)
		case tierDurable:
			res.check("ladder sync", st.dur.Sync())
			if err := st.close(); err != nil {
				return err
			}
			if err := probeRecovery(sc, st.dir, tmp, log, res); err != nil {
				return fmt.Errorf("recovery probe: %w", err)
			}
			return nil
		case tierPublished:
			_, commits := st.pub.History()
			if err := probeWAL(commits, tmp, log, res); err != nil {
				return fmt.Errorf("wal probe: %w", err)
			}
			if err := probeApply(sc, commits, res); err != nil {
				return fmt.Errorf("apply probe: %w", err)
			}
			return nil
		case tierReplicated:
			res.Transport = st.transport
			res.set("repl.wire_bytes_per_record", float64(rr.counts.ReplBytes)/float64(max(rr.counts.ReplRecords, 1)))
			res.set("repl.reconnects", float64(st.folMet.Snapshot().ReplReconnects))
			want := oracle(in.final)
			res.checkStack("ladder top rung", st, want)
			return probeBootstrap(st, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.phase("ladder", &clock)

	legs, err := runReplLegs(sc, in.tail, sz, tmp, res)
	if err != nil {
		return nil, fmt.Errorf("replication legs: %w", err)
	}
	res.set("repl.replica_ack_p50_us", legs.ack.p50)
	res.Samples["ack"] = legs.ack.n
	res.set("repl.catchup_records_per_s", legs.catchupPerS)
	res.set("repl.bootstrap_tuples_per_s", legs.bootstrapPerS)
	res.phase("repl-legs", &clock)

	if err := log.write(filepath.Join(outDir, "trace-"+w.name+".json"), stampEnv(), w, seed); err != nil {
		return nil, err
	}
	res.phase("write-trace", &clock)
	res.Correct = res.Failed == 0
	return res, nil
}
