package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relation"
	"repro/internal/value"
)

// The live writer of the traced run's replication legs waits for the
// replica after every liveAckEvery-th write: it spins until the follower
// has applied that commit. The wait is the replica-ack sample and is
// excluded from the op latencies. No untraced client waits: a spin needs a
// second core to spin on (see README, "One busy thread").
const liveAckEvery = 8

// backgroundPause is how long a background client rests between two ops:
// it is there to race the foreground client, not to compete with it for
// the one core the run may count on.
const backgroundPause = 500 * time.Microsecond

// clientRun is one client's execution state and raw measurements.
type clientRun struct {
	spec     *clientSpec
	sc       *schema
	r        reader
	w        writer
	st       *stack // for acks and lag; nil when the client does neither
	ackEvery int    // 0: never wait for the replica
	// tr, when set, is told which op is about to run, so the engine's own
	// span events can be attributed to it (traced runs only).
	tr *engineTracer

	lat    []uint32      // ns per issued op, in issue order
	wall   time.Duration // the whole stream, ack waits included
	ackLat []uint32
	lagRec []uint32 // records behind, sampled after each write (traced runs)
	issued int      // ops a background client got to issue
	failed int
	first  error // first failure, for the report
}

func (c *clientRun) fail(o *op, format string, args ...any) bool {
	c.failed++
	if c.first == nil {
		c.first = fmt.Errorf("%s: op %+v: %s", c.spec.name, *o, fmt.Sprintf(format, args...))
	}
	return false
}

func tupleSum(t relation.Tuple) int64 {
	var s int64
	for j := 0; j < t.Len(); j++ {
		s += t.ValueAt(j).Int()
	}
	return s
}

// do issues one op through the public API and verifies the reply.
func (c *clientRun) do(o *op) bool {
	sc := c.sc
	switch o.kind {
	case opInsert:
		if err := c.w.Insert(sc.tuple(sc.all, &o.v)); err != nil {
			return c.fail(o, "insert: %v", err)
		}
		return true
	case opReplace:
		if _, err := c.w.Remove(sc.tuple(sc.key, &o.v)); err != nil {
			return c.fail(o, "remove: %v", err)
		}
		if err := c.w.Insert(sc.tuple(sc.all, &o.v)); err != nil {
			return c.fail(o, "insert: %v", err)
		}
		return true
	case opUpdate, opRemove:
		var n int
		var err error
		if o.kind == opUpdate {
			n, err = c.w.Update(sc.tuple(sc.key, &o.v), sc.tuple(o.out, &o.v))
		} else {
			n, err = c.w.Remove(sc.tuple(sc.key, &o.v))
		}
		if err != nil {
			return c.fail(o, "%v", err)
		}
		if o.check >= checkRows && n != int(o.rows) {
			return c.fail(o, "affected %d tuples, want %d", n, o.rows)
		}
		return true
	}
	var rows int
	var sum int64
	out := sc.byMsk[o.out].names
	switch o.kind {
	case opPoint, opCollect:
		res, err := c.r.Query(sc.tuple(o.in, &o.v), out)
		if err != nil {
			return c.fail(o, "query: %v", err)
		}
		rows = len(res)
		for _, t := range res {
			sum += tupleSum(t)
		}
	case opStream:
		err := c.r.QueryFunc(sc.tuple(o.in, &o.v), out, func(t relation.Tuple) bool {
			rows++
			sum += tupleSum(t)
			return true
		})
		if err != nil {
			return c.fail(o, "query: %v", err)
		}
	case opRange:
		lo, hi := value.OfInt(o.v[0]), value.OfInt(o.v[1])
		res, err := c.r.QueryRange(relation.Tuple{}, sc.byMsk[o.in].names[0], &lo, &hi, out)
		if err != nil {
			return c.fail(o, "range: %v", err)
		}
		rows = len(res)
		for _, t := range res {
			sum += tupleSum(t)
		}
	}
	if o.check >= checkRows && rows != int(o.rows) {
		return c.fail(o, "%d rows, want %d", rows, o.rows)
	}
	if o.check == checkFull && sum != o.sum {
		return c.fail(o, "checksum %d, want %d", sum, o.sum)
	}
	return true
}

// run issues the client's whole stream, closed loop. One clock reading per
// op: each op's latency runs from the previous reply to its own.
func (c *clientRun) run(sampleLag bool) {
	ops := c.spec.ops
	c.lat = make([]uint32, 0, len(ops))
	writes := 0
	start := time.Now()
	t0 := start
	for i := range ops {
		o := &ops[i]
		if c.tr != nil {
			c.tr.begin(o.kind, t0)
		}
		c.do(o)
		t1 := time.Now()
		if c.tr != nil {
			c.tr.end(t1)
		}
		c.lat = append(c.lat, uint32(t1.Sub(t0)))
		t0 = t1
		if !o.kind.isRead() {
			writes++
			if sampleLag && c.st.fol != nil {
				c.lagRec = append(c.lagRec, uint32(c.st.lag()))
			}
			if c.ackEvery > 0 && writes%c.ackEvery == 0 {
				head := c.st.pub.Head()
				for c.st.fol.Applied() < head {
					runtime.Gosched()
				}
				t0 = time.Now()
				c.ackLat = append(c.ackLat, uint32(t0.Sub(t1)))
			}
		}
	}
	c.wall = t0.Sub(start)
}

// runBackground issues the client's ops round and round, resting between
// them, until stop is set.
func (c *clientRun) runBackground(stop *atomic.Bool) {
	for i := 0; !stop.Load(); i++ {
		c.do(&c.spec.ops[i%len(c.spec.ops)])
		c.issued++
		time.Sleep(backgroundPause)
	}
}

// phaseResult is what one execution of a workload's clients measured.
type phaseResult struct {
	ops          int     // ops of the reporting (foreground) clients
	background   int     // ops the background clients issued meanwhile
	opsPerS      float64 // foreground ops over the foreground clients' time
	read, write  latStats
	ack          latStats
	allocBytes   uint64 // process-wide, so background work is charged to the ops
	allocs       uint64
	failed       int
	firstFailure error
	walBytes     int64 // log growth (durable stacks)
	commits      int   // writes that changed the relation
	lagP99       float64
	lagMx        float64
}

// latStats is a p50/p99 pair in microseconds with its sample count.
type latStats struct {
	p50, p99 float64
	n        int
}

// runClients runs a workload's clients and reduces what they measured.
// Foreground clients run one after the other on the calling goroutine;
// background clients run beside them, resting between ops, until the last
// foreground client is done. So one thread is busy at any time: on this
// host a second busy thread measures the neighbours, not the engine.
// Latency percentiles are over every foreground client's ops as one pool.
func runClients(runs []*clientRun, sampleLag bool) phaseResult {
	var res phaseResult
	var st *stack
	for _, c := range runs {
		if c.st.dur != nil {
			st = c.st
		}
	}
	if st != nil {
		res.walBytes = -st.walBytes()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, c := range runs {
		if c.spec.background {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.runBackground(&stop)
			}()
		}
	}
	for _, c := range runs {
		if !c.spec.background {
			c.run(sampleLag)
		}
	}
	stop.Store(true)
	wg.Wait()
	runtime.ReadMemStats(&after)
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.allocs = after.Mallocs - before.Mallocs
	if st != nil {
		res.walBytes += st.walBytes()
	}

	var reads, writes, acks, lags []uint32
	var wall time.Duration
	for _, c := range runs {
		res.failed += c.failed
		if res.firstFailure == nil {
			res.firstFailure = c.first
		}
		if c.spec.background {
			res.background += c.issued
			continue
		}
		acks = append(acks, c.ackLat...)
		lags = append(lags, c.lagRec...)
		res.ops += len(c.lat)
		wall += c.wall
		for i, d := range c.lat {
			o := &c.spec.ops[i]
			if o.kind.isRead() {
				reads = append(reads, d)
			} else {
				writes = append(writes, d)
				if o.rows > 0 || o.kind == opInsert || o.kind == opReplace {
					res.commits++
				}
			}
		}
	}
	res.opsPerS = float64(res.ops) / wall.Seconds()
	res.read, res.write, res.ack = pooledStats(reads), pooledStats(writes), pooledStats(acks)
	res.lagP99, res.lagMx = percentile(lags, 0.99), percentile(lags, 1)
	return res
}
