package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/autotuner"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dstruct"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/wal"
)

const (
	probeKeys        = 2000 // executions per point-read probe
	probeScans       = 400  // executions per scan-shape probe
	probeReps        = 15   // repetitions of a front-end stage
	containerSize    = 4096 // entries in a container probe
	syncEvery        = 64   // most appends per timed Log.Sync in the WAL probe
	enumerateEdges   = 3    // autotuner.EnumerateShapes bound
	checkpointTuples = 2000 // relation size of the checkpoint probe
)

// timeEach calls f n times and returns the median call in microseconds.
func timeEach(n int, f func(i int)) float64 {
	ds := make([]uint32, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
		t1 := time.Now()
		ds[i] = uint32(t1.Sub(t0))
		t0 = t1
	}
	return percentile(ds, 0.5) / 1e3
}

// probeSynthesis times the RELC pipeline stages a workload's set-up runs:
// dsl → lint → adequacy (loadSchema), codegen.Generate,
// autotuner.EnumerateShapes, and a cold planner call per probe shape.
func probeSynthesis(w *workloadDef, sc *schema, log *spanLog, res *result) error {
	var parses, adequacies []float64
	for i := 0; i < probeReps; i++ {
		_, st, err := loadSchema(w.specFile, w.decomp, w.keyCols)
		if err != nil {
			return err
		}
		parses = append(parses, float64(st.parse.Nanoseconds())/1e3)
		adequacies = append(adequacies, float64(st.adequacy.Nanoseconds())/1e3)
	}
	res.set("dsl.parse_us", median(parses))
	res.set("decomp.adequacy_us", median(adequacies))

	var gens, enums []float64
	for i := 0; i < 5; i++ {
		var err error
		d := log.time("codegen.Generate", func() {
			_, err = codegen.Generate(sc.spec, sc.dec, codegen.Options{Package: "probe", Ops: sc.nd.Ops})
		})
		if err != nil {
			return err
		}
		gens = append(gens, float64(d.Nanoseconds())/1e3)
		n := 0
		d = log.time("autotuner.EnumerateShapes", func() {
			n = len(autotuner.EnumerateShapes(sc.spec, autotuner.EnumOptions{MaxEdges: enumerateEdges, KeyArity: 1, DefaultKind: dstruct.HTableKind}))
		})
		if n == 0 {
			return fmt.Errorf("autotuner enumerated no shape for %s", sc.spec.Name)
		}
		enums = append(enums, float64(d.Nanoseconds())/1e3)
	}
	res.set("codegen.generate_us", median(gens))
	res.set("autotuner.enumerate_us", median(enums))

	var colds []float64
	for i := 0; i < probeReps; i++ {
		for _, sh := range sc.probeShapes() {
			r, err := core.New(sc.spec, sc.dec)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := r.PlanCandidate(sc.byMsk[sh.in].names, sc.byMsk[sh.out].names); err != nil {
				return err
			}
			colds = append(colds, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	res.set("plan.cold_plan_us", median(colds))
	return nil
}

// probeShape is one standard query shape of a schema.
type probeShape struct {
	kind    opKind
	in, out colMask
}

// probeShapes are the four query shapes the executor probes run on every
// schema, whatever the workload's own stream contains: a point read on the
// key, a streamed and a collected scan on the first key column, and a
// two-value range on it.
func (sc *schema) probeShapes() []probeShape {
	first := colMask(1)
	rest := sc.all &^ first
	return []probeShape{
		{opPoint, sc.key, sc.all &^ sc.key},
		{opStream, first, rest},
		{opCollect, first, rest},
		{opRange, first, rest},
	}
}

// probeOps draws n ops of one shape over keys that exist in m.
func probeOps(m *model, sh probeShape, n int, rnd *rand.Rand) []op {
	keys := make([]aggKey, 0, len(m.rows))
	for k := range m.rows {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b aggKey) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	ops := make([]op, n)
	for i := range ops {
		k := keys[rnd.Intn(len(keys))]
		o := op{kind: sh.kind, in: sh.in, out: sh.out, check: checkNone, v: row{k[0], k[1]}}
		if sh.kind == opRange {
			o.v = row{k[0], k[0] + 1}
		}
		ops[i] = o
	}
	return ops
}

// probeQueryPath runs the standard shapes against the bare relation the
// ladder left behind, with the engine tracer attached, and the same scan
// through each executor of package plan directly.
func probeQueryPath(st *stack, m *model, log *spanLog, res *result) error {
	sc, r := st.sc, st.rel
	rnd := rand.New(rand.NewSource(int64(len(m.rows))))
	tr := newEngineTracer(log, "probe")
	now := time.Now()
	tr.pass = log.add(0, "probe.query-path", 0, now, now, nil)
	r.SetTracer(tr)
	var collectAllocs float64
	for _, sh := range sc.probeShapes() {
		n := probeScans
		if sh.kind == opPoint {
			n = probeKeys
		}
		ops := probeOps(m, sh, n, rnd)
		c := newClientRun(&clientSpec{name: "probe", ops: ops}, sc, st)
		c.tr = tr
		ph := runClients([]*clientRun{c}, false)
		res.attempt(ph.ops, ph.failed, ph.firstFailure)
		if sh.kind == opCollect {
			collectAllocs = float64(ph.allocs) / float64(ph.ops)
		}
	}
	r.SetTracer(nil)
	log.setEnd(tr.pass, time.Now())
	res.set("plan.exec_point_us", percentile(tr.exec[opPoint], 0.5)/1e3)
	res.set("plan.exec_scan_us", percentile(tr.exec[opStream], 0.5)/1e3)
	res.set("plan.exec_collect_us", percentile(tr.exec[opCollect], 0.5)/1e3)
	res.set("plan.exec_range_us", percentile(tr.exec[opRange], 0.5)/1e3)
	res.set("plan.collect_allocs_per_call", collectAllocs)

	// A warm plan-cache lookup, through the public PlanCandidate.
	pt := sc.probeShapes()[0]
	in, out := sc.byMsk[pt.in].names, sc.byMsk[pt.out].names
	const lookups = 20000
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		if _, err := r.PlanCandidate(in, out); err != nil {
			return err
		}
	}
	res.set("core.plancache_hit_us", float64(time.Since(t0).Nanoseconds())/1e3/lookups)

	// The same scan through the interpreter, the closure compiler and the
	// batch compiler, on the relation's instance.
	scan := sc.probeShapes()[1]
	inst := r.Instance()
	inCols, outCols := relation.NewCols(sc.byMsk[scan.in].names...), relation.NewCols(sc.byMsk[scan.out].names...)
	cand, err := plan.NewPlanner(inst.Decomp(), inst.FDs(), plan.MeasuredStats(inst)).Best(inCols, outCols)
	if err != nil {
		return err
	}
	prog, err := plan.Compile(inst, cand.Op, inCols, outCols)
	if err != nil {
		return err
	}
	batch, berr := plan.CompileBatch(inst, cand.Op, inCols, outCols)
	ops := probeOps(m, scan, probeScans, rnd)
	var sink int64
	emit := func(t relation.Tuple) bool { sink += tupleSum(t); return true }
	res.set("plan.exec_interp_us", timeEach(len(ops), func(i int) {
		plan.Exec(inst, cand.Op, sc.tuple(scan.in, &ops[i].v), emit)
	}))
	res.set("plan.exec_compiled_us", timeEach(len(ops), func(i int) {
		prog.StreamView(inst, sc.tuple(scan.in, &ops[i].v), emit)
	}))
	vec := 0.0
	if berr == nil {
		vec = timeEach(len(ops), func(i int) {
			if br, ok := batch.Run(inst, sc.tuple(scan.in, &ops[i].v)); ok {
				br.EachTuple(emit)
				br.Release()
			}
		})
	}
	res.set("plan.exec_vectorized_us", vec)
	if sink == 0 {
		return fmt.Errorf("executor probes saw no data")
	}
	return nil
}

// probeWAL replays the commits a publisher captured through the WAL's
// public pieces one at a time: stream encode, log append without fsync,
// and fsync.
func probeWAL(commits []wal.Commit, tmp string, log *spanLog, res *result) error {
	if len(commits) == 0 {
		return fmt.Errorf("publisher captured no commit")
	}
	enc := wal.NewStreamEncoder()
	var buf []byte
	res.set("wal.encode_us", timeEach(len(commits), func(i int) {
		buf = enc.AppendCommit(buf[:0], commits[i])
	}))
	path := filepath.Join(tmp, "probe.log")
	l, err := wal.Create(path, 1, wal.Config{Policy: wal.SyncOff})
	if err != nil {
		return err
	}
	defer os.Remove(path)
	var syncs []float64
	var aerr error
	appendUS := timeEach(len(commits), func(i int) {
		if err := l.Append(commits[i]); err != nil {
			aerr = err
		}
	})
	if aerr != nil {
		l.Close()
		return aerr
	}
	// fsync cost at group-commit granularity: append a batch, time Sync.
	batch := max(1, min(syncEvery, len(commits)/8))
	for i := 0; i+batch <= len(commits) && len(syncs) < 50; i += batch {
		for _, c := range commits[i : i+batch] {
			if err := l.Append(c); err != nil {
				l.Close()
				return err
			}
		}
		d := log.time("wal.Log.Sync", func() { aerr = l.Sync() })
		if aerr != nil {
			l.Close()
			return aerr
		}
		syncs = append(syncs, float64(d.Nanoseconds())/1e3)
	}
	res.set("wal.append_us", appendUS)
	res.set("wal.fsync_us", median(syncs))
	res.set("wal.bytes_per_commit", float64(l.Size())/float64(l.LastSeq()))
	return l.Close()
}

// probeApply times the follower's apply step alone: the captured commits
// replayed through core.ReplayShardedCommit onto a fresh sharded engine
// (the publisher attached to an empty relation, so the history is whole).
func probeApply(sc *schema, commits []wal.Commit, res *result) error {
	sr, err := core.NewSharded(sc.spec, sc.dec, sc.shardOpts())
	if err != nil {
		return err
	}
	var aerr error
	us := timeEach(len(commits), func(i int) {
		if err := core.ReplayShardedCommit(sr, commits[i]); err != nil && aerr == nil {
			aerr = err
		}
	})
	res.set("repl.apply_us", us)
	return aerr
}

// probeBootstrap attaches one more fresh follower to a live publisher and
// measures what its snapshot bootstrap put on the wire.
func probeBootstrap(st *stack, res *result) error {
	met := &obs.Metrics{}
	fol, err := st.newFollower(st.dialer(), met)
	if err != nil {
		return err
	}
	defer fol.Close()
	head := st.pub.Head()
	deadline := time.Now().Add(replWait)
	for fol.Applied() < head {
		time.Sleep(50 * time.Microsecond) // not a spin: there is one P
		if time.Now().After(deadline) {
			return fmt.Errorf("bootstrap probe stuck at %d of %d", fol.Applied(), head)
		}
	}
	res.set("repl.bootstrap_bytes_per_tuple", float64(met.Snapshot().ReplBytes)/float64(max(fol.Len(), 1)))
	return nil
}

// probeRecovery takes a closed durable directory apart: scan the logs,
// replay them by hand, open it for real (the difference is Open's own
// overhead), checkpoint, reopen, and time the snapshot codec on the
// recovered tuples.
func probeRecovery(sc *schema, dir, tmp string, log *spanLog, res *result) error {
	var scans []*wal.Scan
	records := 0
	var serr error
	scanT := log.time("wal.ReadLog", func() {
		for i := 0; i < numShards && serr == nil; i++ {
			var s *wal.Scan
			if s, serr = wal.ReadLog(filepath.Join(dir, core.ShardDirName(i), "wal.log")); serr == nil {
				scans = append(scans, s)
				records += len(s.Commits)
			}
		}
	})
	if serr != nil {
		return serr
	}
	res.set("wal.scan_records_per_s", float64(records)/scanT.Seconds())

	sr, err := core.NewSharded(sc.spec, sc.dec, sc.shardOpts())
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i, s := range scans {
		for _, c := range s.Commits {
			if err := core.ReplayShardCommit(sr, i, c); err != nil {
				return err
			}
		}
	}
	replayT := time.Since(t0)
	res.set("durable.replay_us_per_commit", float64(replayT.Nanoseconds())/1e3/float64(max(records, 1)))

	re, err := openStack(sc, tierDurable, stackOpts{metrics: true, dir: dir, reopen: true})
	if err != nil {
		return err
	}
	defer re.close()
	snap := re.met.Snapshot()
	res.set("durable.open_other_s", (re.openTime - scanT - replayT).Seconds())
	res.set("durable.recovery_replays", float64(snap.RecoveryReplays))
	res.set("durable.recovery_discards", float64(snap.RecoveryDiscards))
	tuples, err := re.all()
	if err != nil {
		return err
	}
	want, err := sr.All()
	res.check("hand replay vs durable.Open", sameState(relation.FromTuples(sc.spec.Cols(), want...), tuples, err))
	if err := re.close(); err != nil {
		return err
	}
	if err := probeCheckpoint(sc, tuples, tmp, log, res); err != nil {
		return err
	}

	path := filepath.Join(tmp, "probe.snap")
	defer os.Remove(path)
	var n int64
	var cerr error
	wT := log.time("wal.WriteSnapshot", func() { n, cerr = wal.WriteSnapshot(path, 1, tuples, nil) })
	if cerr != nil {
		return cerr
	}
	rT := log.time("wal.ReadSnapshot", func() { _, _, cerr = wal.ReadSnapshot(path) })
	if cerr != nil {
		return cerr
	}
	res.set("wal.snapshot_write_mb_per_s", float64(n)/1e6/wT.Seconds())
	res.set("wal.snapshot_read_mb_per_s", float64(n)/1e6/rT.Seconds())
	return nil
}

// probeCheckpoint times Checkpoint and the reopen after it on a durable
// relation of checkpointTuples tuples. The size is fixed and small because
// Checkpoint materializes the abstraction α with a quadratic number of
// tuple copies: on the 13.7k-edge ladder graph it takes 15 s.
func probeCheckpoint(sc *schema, tuples []relation.Tuple, tmp string, log *spanLog, res *result) error {
	dir := filepath.Join(tmp, "probe-ckpt")
	defer os.RemoveAll(dir)
	st, err := openStack(sc, tierDurable, stackOpts{dir: dir})
	if err != nil {
		return err
	}
	defer st.close()
	tuples = tuples[:min(len(tuples), checkpointTuples)]
	if err := st.dur.InsertBatch(tuples); err != nil {
		return err
	}
	var cerr error
	ckptT := log.time("durable.Checkpoint", func() { cerr = st.dur.Checkpoint() })
	if cerr == nil {
		cerr = st.close()
	}
	if cerr != nil {
		return cerr
	}
	res.set("durable.checkpoint_s", ckptT.Seconds())
	re, err := openStack(sc, tierDurable, stackOpts{dir: dir, reopen: true})
	if err != nil {
		return err
	}
	defer re.close()
	res.set("durable.open_after_ckpt_s", re.openTime.Seconds())
	got, err := re.all()
	res.check("reopen after checkpoint", sameState(relation.FromTuples(sc.spec.Cols(), tuples...), got, err))
	return nil
}

var containerKinds = []dstruct.Kind{
	dstruct.HTableKind, dstruct.AVLKind, dstruct.DListKind,
	dstruct.SkipListKind, dstruct.SortedArrKind, dstruct.VectorKind,
}

// probeContainers times each container kind directly at containerSize
// entries: insert, lookup and clone, per entry.
func probeContainers(res *result) {
	keys := make([]relation.Tuple, containerSize)
	for i := range keys {
		keys[i] = relation.SortedTuple([]string{"k"}, []value.Value{value.OfInt(int64(i))})
	}
	order := rand.New(rand.NewSource(1)).Perm(containerSize)
	for _, kind := range containerKinds {
		var inserts, lookups, clones []float64
		for rep := 0; rep < 5; rep++ {
			m := dstruct.New[int](kind)
			t0 := time.Now()
			for _, i := range order {
				m.Put(keys[i], i)
			}
			inserts = append(inserts, float64(time.Since(t0).Nanoseconds())/containerSize)
			t0 = time.Now()
			hits := 0
			for _, i := range order {
				if _, ok := m.Get(keys[i]); ok {
					hits++
				}
			}
			lookups = append(lookups, float64(time.Since(t0).Nanoseconds())/containerSize)
			t0 = time.Now()
			c := m.Clone()
			clones = append(clones, float64(time.Since(t0).Nanoseconds())/containerSize)
			if hits != containerSize || c.Len() != containerSize {
				res.check("container "+string(kind), fmt.Errorf("%d hits, clone has %d of %d entries", hits, c.Len(), containerSize))
			}
		}
		name := "dstruct." + string(kind)
		res.set(name+".insert_ns", median(inserts))
		res.set(name+".lookup_ns", median(lookups))
		res.set(name+".clone_ns_per_entry", median(clones))
	}
}

// probeMetricsCost is the price of an attached obs.Metrics on the point
// read leg: the same point reads against two sharded engines, one with
// metrics and one without, interleaved; the ratio of the median batches.
func probeMetricsCost(sc *schema, in *inputs, res *result) error {
	var stacks [2]*stack
	for i := range stacks {
		st, err := openStack(sc, tierSharded, stackOpts{metrics: i == 1})
		if err != nil {
			return err
		}
		if err := st.preload(in.preload); err != nil {
			return err
		}
		stacks[i] = st
	}
	m := newModel(sc)
	for _, v := range in.preload {
		m.put(v)
	}
	ops := probeOps(m, sc.probeShapes()[0], probeKeys, rand.New(rand.NewSource(2)))
	var us [2][]float64
	for rep := 0; rep < 7; rep++ {
		for i, st := range stacks {
			c := newClientRun(&clientSpec{name: "metrics-probe", ops: ops}, sc, st)
			c.run(false)
			res.attempt(len(ops), c.failed, c.first)
			us[i] = append(us[i], percentile(c.lat, 0.5))
		}
	}
	res.set("obs.metrics_on_ratio", median(us[1])/median(us[0]))
	return nil
}
