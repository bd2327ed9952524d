package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/relation"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: what is printed, written to
// bench/out/ and compared by `bench compare`.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Sizes     sizes                  `json:"sizes"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]metricValue `json:"info,omitempty"` // printed, not gated
	Samples   map[string]int         `json:"samples"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Failures  []string               `json:"failures,omitempty"`
	Transport string                 `json:"transport,omitempty"`
	WallS     float64                `json:"wall_s"`
	// Cycles holds every cycle's sample of every timing, in run order
	// (untraced runs): what the reported timings were reduced from.
	// chunk_ms.<client> is that client's chunk times, 16 per cycle.
	Cycles map[string][]float64 `json:"cycles,omitempty"`
	// PhaseS is where the run's wall time went, for sizing the workloads.
	PhaseS map[string]float64 `json:"phase_s"`
}

// phase adds the time since *t to the named phase and restarts *t.
func (r *result) phase(name string, t *time.Time) {
	now := time.Now()
	r.PhaseS[name] += now.Sub(*t).Seconds()
	*t = now
}

func newResult(w *workloadDef, seed int64, sz sizes, trace bool) *result {
	return &result{
		Workload: w.name, Seed: seed, Trace: trace, Sizes: sz,
		Metrics: map[string]metricValue{}, Info: map[string]metricValue{}, Samples: map[string]int{}, PhaseS: map[string]float64{},
	}
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// info records a number that is reported but not part of the contract.
func (r *result) info(name string, v float64) {
	r.Info[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// attempt counts n more attempted operations, failed of which failed.
func (r *result) attempt(n, failed int, first error) {
	r.Attempted += n
	r.Failed += failed
	if first != nil && len(r.Failures) < 8 {
		r.Failures = append(r.Failures, first.Error())
	}
}

// check counts one state check.
func (r *result) check(what string, err error) {
	if err != nil {
		r.attempt(1, 1, fmt.Errorf("%s: %w", what, err))
		return
	}
	r.attempt(1, 0, nil)
}

// oracle materializes a model as the internal/relation reference
// implementation, which every engine state is compared against.
func oracle(m *model) *relation.Relation {
	return relation.FromTuples(m.sc.spec.Cols(), m.tuples()...)
}

// sameState compares an engine's All() with the oracle.
func sameState(want *relation.Relation, got []relation.Tuple, err error) error {
	if err != nil {
		return err
	}
	if len(got) != want.Len() {
		return fmt.Errorf("%d tuples, oracle has %d", len(got), want.Len())
	}
	if !relation.FromTuples(want.Cols(), got...).Equal(want) {
		return fmt.Errorf("tuple set differs from the oracle")
	}
	return nil
}

// invariantLimit is the largest relation CheckInvariants is called on: it
// recomputes α with a quadratic number of tuple copies (instance.CheckWF
// says "intended for tests"): half a second at 750 graph edges, seconds at
// 20k flows, hours at 150k edges. Every smoke-size stack and every
// scheduler stack is below it.
const invariantLimit = 1500

// checkStack compares every end of a stack with the oracle and checks
// the engines' own invariants.
func (r *result) checkStack(what string, st *stack, want *relation.Relation) {
	got, err := st.all()
	r.check(what+" primary vs oracle", sameState(want, got, err))
	small := want.Len() <= invariantLimit
	if small {
		r.check(what+" primary invariants", st.eng.CheckInvariants())
	}
	if st.fol != nil {
		got, err := st.fol.All()
		r.check(what+" replica vs oracle", sameState(want, got, err))
		if small {
			r.check(what+" replica invariants", st.fol.CheckInvariants())
		}
	}
}

// setUp is the path a user pays before the first op: spec text → parse →
// lint → adequacy → engine open → preload → first-touch plans. It returns
// the wall time of exactly that.
func setUp(w *workloadDef, in *inputs, dir string, res *result) (*schema, *stack, time.Duration, error) {
	start := time.Now()
	sc, _, err := loadSchema(w.specFile, w.decomp, w.keyCols)
	if err != nil {
		return nil, nil, 0, err
	}
	st, err := openStack(sc, w.tier, stackOpts{metrics: w.metrics, dir: dir})
	if err != nil {
		return nil, nil, 0, err
	}
	if err := st.preload(in.preload); err != nil {
		st.close()
		return nil, nil, 0, err
	}
	for i := range in.clients {
		c := newClientRun(&in.clients[i], sc, st)
		seen := map[[3]uint8]bool{}
		for j := range c.spec.ops {
			o := &c.spec.ops[j]
			shape := [3]uint8{uint8(o.kind), uint8(o.in), uint8(o.out)}
			if !o.kind.isRead() || seen[shape] {
				continue
			}
			seen[shape] = true
			first := *o
			first.check = checkNone // the stream has not reached this op yet
			c.do(&first)
		}
		res.attempt(len(seen), c.failed, c.first)
	}
	return sc, st, time.Since(start), nil
}

func newClientRun(spec *clientSpec, sc *schema, st *stack) *clientRun {
	c := &clientRun{spec: spec, sc: sc, st: st, r: st.eng, w: st.eng}
	if spec.replica {
		c.r, c.w = st.fol, nil
	}
	return c
}

// heapAlloc is the live heap. It collects twice: what a sync.Pool held
// survives one collection in the pool's victim cache.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cycleResult is what one cycle of an untraced run measured.
type cycleResult struct {
	setup    time.Duration
	steady   phaseResult
	recoverS float64 // commits replayed per second
}

// chunks is how many equal-count pieces a client's stream is cut into for
// the throughput estimate: a piece is some tens of milliseconds of work,
// short enough to fall into a quiet moment of the host, long enough to
// hold its share of collections and log syncs.
const chunks = 16

// minCycles is the least number of cycles a run makes, however slow the
// host.
const minCycles = 3

// streamBest is the fastest the host let one client's stream go, over
// every cycle of a run: per op the least latency, per chunk the least
// wall time. Every cycle issues the same ops against the same state, so
// what differs between two cycles' times for the same piece of work is
// the host (README, "One busy thread, best of identical cycles").
type streamBest struct {
	lat   []uint32
	chunk [chunks]time.Duration
	all   [][chunks]time.Duration // every cycle's chunk times, for the result file
}

func (b *streamBest) fold(lat []uint32) {
	first := b.lat == nil
	if first {
		b.lat = make([]uint32, len(lat))
	}
	var wall [chunks]time.Duration
	for i, d := range lat {
		wall[i*chunks/len(lat)] += time.Duration(d)
		if first || d < b.lat[i] {
			b.lat[i] = d
		}
	}
	for j, d := range wall {
		if first || d < b.chunk[j] {
			b.chunk[j] = d
		}
	}
	b.all = append(b.all, wall)
}

// runE2E is one untraced run: the heap measurement, a history committed to
// a log, then identical cycles of { set up a fresh stack, drive the
// clients' streams through it, check, close, recover the history's log }
// until the run has measured for the given time. Every cycle does exactly
// the same work, so every cycle is one sample of every timing, and the
// samples of each timing are spread over the whole run; reduce says what
// is reported of them.
func runE2E(w *workloadDef, seed int64, sz sizes, measure time.Duration, tmp string) (*result, error) {
	res := newResult(w, seed, sz, false)
	clock := time.Now()
	sc, _, err := loadSchema(w.specFile, w.decomp, w.keyCols)
	if err != nil {
		return nil, err
	}
	in := w.gen(sc, sz, seed)
	final, recovered := oracle(in.final), oracle(in.tail.afterHistory)
	res.phase("generate", &clock)

	if err := heapPerTuple(w, in, sz, tmp, res); err != nil {
		return nil, err
	}
	res.phase("heap", &clock)

	// The log the recovery leg replays: one history of the workload's
	// relation, committed on a durable stack of its own. A workload whose
	// steady phase logs nothing reports this log's volume.
	history := filepath.Join(tmp, "history")
	walBytes, commits, err := commitHistory(sc, in.tail, history, res)
	if err != nil {
		return nil, err
	}
	res.phase("history", &clock)

	best := make([]streamBest, len(in.clients))
	var cycles []cycleResult
	var replays uint64
	start := time.Now()
	for i := 0; ; i++ {
		// Stop when the next cycle would end after the time is up.
		if spent := time.Since(start); i >= minCycles && spent+spent/time.Duration(i) > measure {
			break
		}
		var cy cycleResult
		first := i == 0 // full state checks once; every cycle checks every reply
		_, st, d, err := setUp(w, in, filepath.Join(tmp, fmt.Sprintf("steady-%d", i)), res)
		if err != nil {
			return nil, err
		}
		cy.setup = d
		res.Transport = st.transport
		res.phase("setup", &clock)

		runs := make([]*clientRun, len(in.clients))
		for j := range in.clients {
			runs[j] = newClientRun(&in.clients[j], sc, st)
		}
		cy.steady = runClients(runs, false)
		res.attempt(cy.steady.ops+cy.steady.background, cy.steady.failed, cy.steady.firstFailure)
		for j, c := range runs {
			if !c.spec.background {
				best[j].fold(c.lat)
			}
		}
		res.phase("steady", &clock)

		// Correctness, outside every timed region.
		if st.fol != nil {
			if err := st.awaitReplica(); err != nil {
				st.close()
				return nil, err
			}
		}
		if first {
			res.checkStack("steady", st, final)
		} else if n := st.eng.Len(); n != final.Len() {
			res.check("steady", fmt.Errorf("%d tuples, oracle has %d", n, final.Len()))
		}
		if st.dur != nil {
			res.check("sync", st.dur.Sync())
			walBytes, commits = cy.steady.walBytes, cy.steady.commits
		}
		if err := st.close(); err != nil {
			return nil, err
		}
		if st.dur != nil && first {
			// Durability of the steady phase's own log, replayed from the
			// bytes on disk.
			if _, _, err := recoverOnce(sc, st.dir, final, res); err != nil {
				res.check("reopen", err)
			}
		}
		os.RemoveAll(st.dir)
		res.phase("check", &clock)

		var want *relation.Relation
		if first {
			want = recovered
		}
		var n uint64
		if cy.recoverS, n, err = recoverOnce(sc, history, want, res); err != nil {
			return nil, err
		}
		if first {
			replays = n
		} else if n != replays {
			res.check("recovery repeats", fmt.Errorf("cycle %d replayed %d commits, the first %d", i, n, replays))
		}
		res.phase("recover", &clock)
		cycles = append(cycles, cy)
	}

	res.reduce(in.clients, best, cycles)
	res.set("wal_bytes_per_user_byte", float64(walBytes)/float64(8*len(sc.cols)*commits))
	res.Correct = res.Failed == 0
	return res, nil
}

// heapPerTuple measures heap_bytes_per_tuple: the live heap a set-up adds,
// over at least sz.HeapTuples tuples. A small relation (the scheduler's
// thousand processes) is set up several times over, or the collector's
// own bookkeeping would be a visible share of the difference.
func heapPerTuple(w *workloadDef, in *inputs, sz sizes, tmp string, res *result) error {
	heap0 := heapAlloc()
	var copies []*stack
	tuples := 0
	for n := 0; n == 0 || tuples < sz.HeapTuples && len(in.preload) > 0; n++ {
		_, c, _, err := setUp(w, in, filepath.Join(tmp, fmt.Sprintf("heap-%d", n)), res)
		if err != nil {
			return err
		}
		copies = append(copies, c)
		tuples += c.eng.Len()
	}
	res.set("heap_bytes_per_tuple", float64(heapAlloc()-heap0)/float64(max(tuples, 1)))
	for _, c := range copies {
		if err := c.close(); err != nil {
			return err
		}
		os.RemoveAll(c.dir)
	}
	return nil
}

// reduce turns the cycles' samples into the reported metrics. Counts are
// totals over every cycle. A timing is the best the cycles saw: on this
// host what differs between two timings of the same work is what the
// neighbours were doing, and that only ever adds time.
//   - setup_s, recover_replays_per_s: the fastest cycle's;
//   - ops_per_s: the ops of one cycle over the sum of every chunk's
//     fastest time;
//   - read_p50_us, write_p50_us: the median over the ops of each op's
//     fastest reply.
//
// The cycles' own figures are kept in the result file.
func (r *result) reduce(clients []clientSpec, best []streamBest, cycles []cycleResult) {
	r.Cycles = map[string][]float64{}
	var ops int
	var allocBytes, allocs uint64
	for i := range cycles {
		cy := &cycles[i]
		ops += cy.steady.ops
		allocBytes += cy.steady.allocBytes
		allocs += cy.steady.allocs
		r.Cycles["setup_s"] = append(r.Cycles["setup_s"], cy.setup.Seconds())
		r.Cycles["ops_per_s"] = append(r.Cycles["ops_per_s"], cy.steady.opsPerS)
		r.Cycles["read_p50_us"] = append(r.Cycles["read_p50_us"], cy.steady.read.p50)
		r.Cycles["write_p50_us"] = append(r.Cycles["write_p50_us"], cy.steady.write.p50)
		r.Cycles["recover_replays_per_s"] = append(r.Cycles["recover_replays_per_s"], cy.recoverS)
	}
	r.Samples["cycles"] = len(cycles)
	r.set("alloc_bytes_per_op", float64(allocBytes)/float64(ops))
	r.set("allocs_per_op", float64(allocs)/float64(ops))
	r.set("setup_s", slices.Min(r.Cycles["setup_s"]))
	r.set("recover_replays_per_s", slices.Max(r.Cycles["recover_replays_per_s"]))

	var reads, writes []uint32
	var wall time.Duration
	ops = 0
	for j := range clients {
		if clients[j].background {
			continue
		}
		ops += len(best[j].lat)
		for _, d := range best[j].chunk {
			wall += d
		}
		for _, cy := range best[j].all {
			for _, d := range cy {
				r.Cycles["chunk_ms."+clients[j].name] = append(r.Cycles["chunk_ms."+clients[j].name], d.Seconds()*1e3)
			}
		}
		for i, d := range best[j].lat {
			if clients[j].ops[i].kind.isRead() {
				reads = append(reads, d)
			} else {
				writes = append(writes, d)
			}
		}
	}
	rd, wr := pooledStats(reads), pooledStats(writes)
	r.set("ops_per_s", float64(ops)/wall.Seconds())
	r.set("read_p50_us", rd.p50)
	r.info("read_p99_us", rd.p99)
	r.set("write_p50_us", wr.p50)
	r.info("write_p99_us", wr.p99)
	r.Samples["read"], r.Samples["write"] = rd.n, wr.n
}
