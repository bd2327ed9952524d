// Package obs is the engine's observability plane: per-relation metrics,
// an optional structured tracer, and the snapshot/export plumbing both
// share. The paper's cost model (§4.3) predicts what a decomposition
// should cost; this package measures what the runtime actually did — which
// plans ran compiled versus interpreted, how often the plan cache hit, how
// many mutations validated, applied, and rolled back — so the prediction
// can be checked against reality.
//
// The plane is strictly opt-in and zero-dependency. A relation with no
// Metrics attached pays one nil check per instrumented site and never
// calls time.Now; a relation with Metrics attached pays one atomic
// increment per counter. Counters are plain atomics, so one *Metrics may
// be shared across goroutines and across the shards of a
// core.ShardedRelation without locking.
//
// # Counter semantics
//
// Counters count engine-level events, and the differential test in
// package core holds the engine to these rules exactly:
//
//   - QueryCollect / QueryStream / QueryRange / QueryPoint: one increment
//     per Query / QueryFunc / QueryRange(Func) / point-query call on a
//     single-threaded Relation. A sharded fan-out increments the counter
//     once per shard (the fan-out is visible); a routed operation
//     increments it once.
//   - ExecCompiled / ExecInterpreted / ExecPoint / ExecVectorized: one
//     increment per plan execution, by tier — including the internal
//     executions mutations use to locate tuples. A vectorized execution
//     that bails out mid-run counts one VecFallbacks plus one increment
//     for the tier that finished the query; ExecVectorized counts only
//     completed vectorized executions. Range queries are attributed the
//     same way: their batch program counts ExecVectorized, and the tier
//     that finishes a bailed one is the interpreter (a range query has no
//     closure form), so ExecInterpreted counts exactly the bails.
//   - PlanCacheHits / PlanCacheMisses: one increment per memoized plan
//     lookup. A miss is a planner invocation; concurrent callers that wait
//     on an in-flight planning of the same shape count as hits. A range
//     query's shape is (input, output, range column) — an entry of its own,
//     whatever the bounds.
//   - PlanCompiled / PlanFallbacks: promotions of an equality shape into
//     the plan cache that did / did not lower to a closure program.
//   - PlanVectorized: promotions that lowered to a batch program — an
//     equality shape's on top of its closure program (plan.CompileBatch), a
//     range shape's on its own (plan.CompileBatchRange; it counts neither
//     of the two above); VecFallbacks: vectorized executions that bailed
//     out at run time and re-ran on the tier below.
//   - Inserts / Removes / Updates / Upserts: one increment per mutation
//     call on a single-threaded Relation — a batch of n tuples counts n
//     inserts, a pattern remove counts 1 however many tuples matched, a
//     routed sharded mutation counts 1, and a fan-out mutation counts
//     once per shard. Compensation inside a compound mutation re-runs
//     instance mutations without re-counting these logical-op counters.
//   - MutValidates / MutApplies / MutRollbacks: the two-phase instance
//     counters — one validate per planning pass entered, one apply per
//     apply pass entered, one rollback per undo-log replay (§4.4–4.5).
//     Compensation inside compound mutations re-runs instance mutations
//     and counts them.
//   - PoisonEvents: transitions of a relation into the poisoned
//     (read-only) state; at most one per relation lifetime.
//   - RoutedOps / FanOuts: sharded-tier routing decisions — operations
//     that locked exactly one shard versus fan-outs over all shards
//     (including batch mutations, one per batch). FanOutLatency records
//     the wall-clock duration of each fan-out.
//   - SnapPublishes / SnapDrops: version turnover on the MVCC tiers — one
//     publish per write operation that changed the relation and atomically
//     installed its new version (a no-op mutation publishes nothing), one
//     drop per write operation that failed and abandoned its unpublished
//     version. A sharded operation counts per shard that published or
//     dropped.
//   - SnapReads: snapshot acquisitions by the lock-free read path — one
//     per read operation (Query / QueryFunc / QueryRange / point query) on
//     SyncRelation, one per shard visited on ShardedRelation (routed
//     reads count 1, fan-outs once per shard). Len and the maintenance
//     reads (Poisoned, CheckInvariants, ExplainQuery) pin snapshots too
//     but are not query traffic and do not count.
//   - CowNodeClones / CowMapClones: copy-on-write volume — nodes cloned by
//     mutation spines and dstruct maps forked inside those clones. The
//     clone count per operation depends on decomposition shape and on how
//     many applies share a spine, so tests treat these as observed values
//     with sanity bounds rather than exact predictions.
//   - WalAppends / WalFsyncs / WalBytes: durable-tier log traffic — one
//     append per committed record (a mutation that changed the relation;
//     no-ops append nothing), one fsync per file synchronization actually
//     issued (so SyncAlways counts one per append, SyncInterval counts
//     group commits, SyncOff counts only checkpoint/close syncs), and the
//     framed bytes written.
//   - CkptWrites / CkptBytes: completed checkpoint snapshots (per cell on
//     the sharded tier) and the snapshot-file bytes they wrote.
//   - RecoveryReplays / RecoveryDiscards: durable.Open work — log records
//     replayed into the fresh relation, and torn trailing records
//     discarded by the CRC scan.
//   - ReplRecords / ReplBytes / ReplSnapshots: replication traffic, each
//     side counting its own work on its own Metrics — a publisher counts
//     commit records and framed bytes sent plus bootstrap snapshots
//     served, a follower counts records applied, framed bytes received,
//     and snapshots loaded. One record shipped to two followers counts
//     once per follower connection on the publisher.
//   - ReplBatches: follower only — how many times Applied advanced over
//     commit records: the frames one read of the link returned are applied
//     as one batch, each run of them bound for one cell as one version. A
//     follower that keeps up counts one batch per record; the ratio
//     ReplRecords / ReplBatches is how far catch-up amortized its forks.
//   - ReplReconnects: follower re-subscription attempts after the first
//     connection — every dial after a session ended, successful or not.
//   - ReplLag: a gauge, not a counter — the follower's current sequence
//     delta behind the publisher's acknowledged head (head seen on the
//     wire minus records applied), stored on every applied batch and on
//     snapshot completion. Sub keeps the later snapshot's value rather
//     than subtracting, since a gauge delta is meaningless.
package obs

import (
	"expvar"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Metrics is one relation engine's counter block. The zero value is ready
// to use; share one *Metrics across every tier wrapper (and every shard)
// of the same logical relation.
type Metrics struct {
	QueryCollect atomic.Uint64
	QueryStream  atomic.Uint64
	QueryRange   atomic.Uint64
	QueryPoint   atomic.Uint64

	ExecCompiled    atomic.Uint64
	ExecInterpreted atomic.Uint64
	ExecPoint       atomic.Uint64
	ExecVectorized  atomic.Uint64

	PlanCacheHits   atomic.Uint64
	PlanCacheMisses atomic.Uint64
	PlanCompiled    atomic.Uint64
	PlanFallbacks   atomic.Uint64
	PlanVectorized  atomic.Uint64
	VecFallbacks    atomic.Uint64

	Inserts atomic.Uint64
	Removes atomic.Uint64
	Updates atomic.Uint64
	Upserts atomic.Uint64

	MutValidates atomic.Uint64
	MutApplies   atomic.Uint64
	MutRollbacks atomic.Uint64
	PoisonEvents atomic.Uint64

	RoutedOps     atomic.Uint64
	FanOuts       atomic.Uint64
	FanOutLatency Histogram

	SnapPublishes atomic.Uint64
	SnapDrops     atomic.Uint64
	SnapReads     atomic.Uint64
	CowNodeClones atomic.Uint64
	CowMapClones  atomic.Uint64

	WalAppends atomic.Uint64
	WalFsyncs  atomic.Uint64
	WalBytes   atomic.Uint64

	CkptWrites atomic.Uint64
	CkptBytes  atomic.Uint64

	RecoveryReplays  atomic.Uint64
	RecoveryDiscards atomic.Uint64

	ReplRecords    atomic.Uint64
	ReplBatches    atomic.Uint64
	ReplBytes      atomic.Uint64
	ReplSnapshots  atomic.Uint64
	ReplReconnects atomic.Uint64
	ReplLag        atomic.Uint64 // gauge: current sequence delta behind the publisher
}

// Snapshot is an atomic-free copy of a Metrics block, safe to compare,
// subtract, and marshal. Field names match Metrics.
type Snapshot struct {
	QueryCollect, QueryStream, QueryRange, QueryPoint uint64

	ExecCompiled, ExecInterpreted, ExecPoint, ExecVectorized uint64

	PlanCacheHits, PlanCacheMisses, PlanCompiled, PlanFallbacks uint64
	PlanVectorized, VecFallbacks                                uint64

	Inserts, Removes, Updates, Upserts uint64

	MutValidates, MutApplies, MutRollbacks, PoisonEvents uint64

	RoutedOps, FanOuts uint64
	FanOutLatency      HistogramSnapshot

	SnapPublishes, SnapDrops, SnapReads uint64
	CowNodeClones, CowMapClones         uint64

	WalAppends, WalFsyncs, WalBytes   uint64
	CkptWrites, CkptBytes             uint64
	RecoveryReplays, RecoveryDiscards uint64

	ReplRecords, ReplBatches, ReplBytes, ReplSnapshots uint64
	ReplReconnects, ReplLag                            uint64
}

// Snapshot copies every counter. Each counter is read atomically; the
// snapshot as a whole is not a consistent cut under concurrent writers
// (counters may be mid-operation), which is the usual contract for
// monitoring counters.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		QueryCollect:    m.QueryCollect.Load(),
		QueryStream:     m.QueryStream.Load(),
		QueryRange:      m.QueryRange.Load(),
		QueryPoint:      m.QueryPoint.Load(),
		ExecCompiled:    m.ExecCompiled.Load(),
		ExecInterpreted: m.ExecInterpreted.Load(),
		ExecPoint:       m.ExecPoint.Load(),
		ExecVectorized:  m.ExecVectorized.Load(),
		PlanCacheHits:   m.PlanCacheHits.Load(),
		PlanCacheMisses: m.PlanCacheMisses.Load(),
		PlanCompiled:    m.PlanCompiled.Load(),
		PlanFallbacks:   m.PlanFallbacks.Load(),
		PlanVectorized:  m.PlanVectorized.Load(),
		VecFallbacks:    m.VecFallbacks.Load(),
		Inserts:         m.Inserts.Load(),
		Removes:         m.Removes.Load(),
		Updates:         m.Updates.Load(),
		Upserts:         m.Upserts.Load(),
		MutValidates:    m.MutValidates.Load(),
		MutApplies:      m.MutApplies.Load(),
		MutRollbacks:    m.MutRollbacks.Load(),
		PoisonEvents:    m.PoisonEvents.Load(),
		RoutedOps:       m.RoutedOps.Load(),
		FanOuts:         m.FanOuts.Load(),
		FanOutLatency:   m.FanOutLatency.Snapshot(),
		SnapPublishes:   m.SnapPublishes.Load(),
		SnapDrops:       m.SnapDrops.Load(),
		SnapReads:       m.SnapReads.Load(),
		CowNodeClones:   m.CowNodeClones.Load(),
		CowMapClones:    m.CowMapClones.Load(),

		WalAppends:       m.WalAppends.Load(),
		WalFsyncs:        m.WalFsyncs.Load(),
		WalBytes:         m.WalBytes.Load(),
		CkptWrites:       m.CkptWrites.Load(),
		CkptBytes:        m.CkptBytes.Load(),
		RecoveryReplays:  m.RecoveryReplays.Load(),
		RecoveryDiscards: m.RecoveryDiscards.Load(),

		ReplRecords:    m.ReplRecords.Load(),
		ReplBatches:    m.ReplBatches.Load(),
		ReplBytes:      m.ReplBytes.Load(),
		ReplSnapshots:  m.ReplSnapshots.Load(),
		ReplReconnects: m.ReplReconnects.Load(),
		ReplLag:        m.ReplLag.Load(),
	}
}

// Sub returns s - prev, field by field — the counter deltas over an
// interval bracketed by two snapshots.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		QueryCollect:    s.QueryCollect - prev.QueryCollect,
		QueryStream:     s.QueryStream - prev.QueryStream,
		QueryRange:      s.QueryRange - prev.QueryRange,
		QueryPoint:      s.QueryPoint - prev.QueryPoint,
		ExecCompiled:    s.ExecCompiled - prev.ExecCompiled,
		ExecInterpreted: s.ExecInterpreted - prev.ExecInterpreted,
		ExecPoint:       s.ExecPoint - prev.ExecPoint,
		ExecVectorized:  s.ExecVectorized - prev.ExecVectorized,
		PlanCacheHits:   s.PlanCacheHits - prev.PlanCacheHits,
		PlanCacheMisses: s.PlanCacheMisses - prev.PlanCacheMisses,
		PlanCompiled:    s.PlanCompiled - prev.PlanCompiled,
		PlanFallbacks:   s.PlanFallbacks - prev.PlanFallbacks,
		PlanVectorized:  s.PlanVectorized - prev.PlanVectorized,
		VecFallbacks:    s.VecFallbacks - prev.VecFallbacks,
		Inserts:         s.Inserts - prev.Inserts,
		Removes:         s.Removes - prev.Removes,
		Updates:         s.Updates - prev.Updates,
		Upserts:         s.Upserts - prev.Upserts,
		MutValidates:    s.MutValidates - prev.MutValidates,
		MutApplies:      s.MutApplies - prev.MutApplies,
		MutRollbacks:    s.MutRollbacks - prev.MutRollbacks,
		PoisonEvents:    s.PoisonEvents - prev.PoisonEvents,
		RoutedOps:       s.RoutedOps - prev.RoutedOps,
		FanOuts:         s.FanOuts - prev.FanOuts,
		FanOutLatency:   s.FanOutLatency.Sub(prev.FanOutLatency),
		SnapPublishes:   s.SnapPublishes - prev.SnapPublishes,
		SnapDrops:       s.SnapDrops - prev.SnapDrops,
		SnapReads:       s.SnapReads - prev.SnapReads,
		CowNodeClones:   s.CowNodeClones - prev.CowNodeClones,
		CowMapClones:    s.CowMapClones - prev.CowMapClones,

		WalAppends:       s.WalAppends - prev.WalAppends,
		WalFsyncs:        s.WalFsyncs - prev.WalFsyncs,
		WalBytes:         s.WalBytes - prev.WalBytes,
		CkptWrites:       s.CkptWrites - prev.CkptWrites,
		CkptBytes:        s.CkptBytes - prev.CkptBytes,
		RecoveryReplays:  s.RecoveryReplays - prev.RecoveryReplays,
		RecoveryDiscards: s.RecoveryDiscards - prev.RecoveryDiscards,

		ReplRecords:    s.ReplRecords - prev.ReplRecords,
		ReplBatches:    s.ReplBatches - prev.ReplBatches,
		ReplBytes:      s.ReplBytes - prev.ReplBytes,
		ReplSnapshots:  s.ReplSnapshots - prev.ReplSnapshots,
		ReplReconnects: s.ReplReconnects - prev.ReplReconnects,
		ReplLag:        s.ReplLag, // gauge: carry the later value
	}
}

// String renders the non-zero counters compactly, one group per line, for
// logs and test failure messages.
func (s Snapshot) String() string {
	var b []byte
	app := func(name string, v uint64) {
		if v == 0 {
			return
		}
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = fmt.Appendf(b, "%s=%d", name, v)
	}
	app("query.collect", s.QueryCollect)
	app("query.stream", s.QueryStream)
	app("query.range", s.QueryRange)
	app("query.point", s.QueryPoint)
	app("exec.compiled", s.ExecCompiled)
	app("exec.interpreted", s.ExecInterpreted)
	app("exec.point", s.ExecPoint)
	app("exec.vectorized", s.ExecVectorized)
	app("plancache.hits", s.PlanCacheHits)
	app("plancache.misses", s.PlanCacheMisses)
	app("plan.compiled", s.PlanCompiled)
	app("plan.fallbacks", s.PlanFallbacks)
	app("plan.vectorized", s.PlanVectorized)
	app("vec.fallbacks", s.VecFallbacks)
	app("mut.inserts", s.Inserts)
	app("mut.removes", s.Removes)
	app("mut.updates", s.Updates)
	app("mut.upserts", s.Upserts)
	app("mut.validates", s.MutValidates)
	app("mut.applies", s.MutApplies)
	app("mut.rollbacks", s.MutRollbacks)
	app("poison.events", s.PoisonEvents)
	app("shard.routed", s.RoutedOps)
	app("shard.fanouts", s.FanOuts)
	app("snap.publishes", s.SnapPublishes)
	app("snap.drops", s.SnapDrops)
	app("exec.snapshot", s.SnapReads)
	app("cow.nodes", s.CowNodeClones)
	app("cow.maps", s.CowMapClones)
	app("wal.appends", s.WalAppends)
	app("wal.fsyncs", s.WalFsyncs)
	app("wal.bytes", s.WalBytes)
	app("ckpt.writes", s.CkptWrites)
	app("ckpt.bytes", s.CkptBytes)
	app("recovery.replays", s.RecoveryReplays)
	app("recovery.discards", s.RecoveryDiscards)
	app("repl.records", s.ReplRecords)
	app("repl.batches", s.ReplBatches)
	app("repl.bytes", s.ReplBytes)
	app("repl.snapshots", s.ReplSnapshots)
	app("repl.reconnects", s.ReplReconnects)
	app("repl.lag", s.ReplLag)
	if s.FanOutLatency.Count > 0 {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = fmt.Appendf(b, "shard.fanout_latency={n=%d mean=%s}",
			s.FanOutLatency.Count, s.FanOutLatency.Mean())
	}
	if len(b) == 0 {
		return "(all zero)"
	}
	return string(b)
}

// Publish registers the metrics under name on the process-wide expvar
// registry, so the standard /debug/vars endpoint serves the live snapshot
// as JSON. expvar panics on duplicate names; Publish turns that into an
// error (expvar offers no unpublish, so tests reuse distinct names).
func (m *Metrics) Publish(name string) error {
	if expvar.Get(name) != nil {
		return fmt.Errorf("obs: expvar name %q already published", name)
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
	return nil
}

// HistBuckets is the number of exponential latency buckets: bucket 0 holds
// durations under 1µs and bucket i durations in [2^(i-1), 2^i) µs, so the
// top bucket starts at 2^(HistBuckets-2) µs ≈ 17min and catches everything
// above.
const HistBuckets = 32

// Histogram is a fixed-bucket exponential latency histogram with atomic
// observation, for the sharded tier's fan-out latency. The zero value is
// ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[bucketOf(d)].Add(1)
}

// bucketOf maps a duration to its bucket index: the position of the
// highest set bit of the duration in whole microseconds.
func bucketOf(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	b := bits.Len64(us)
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// BucketBound returns the exclusive upper bound of bucket i; the top
// bucket is unbounded and reports the largest representable duration.
func BucketBound(i int) time.Duration {
	if i >= HistBuckets-1 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// Snapshot copies the histogram counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is an atomic-free copy of a Histogram.
type HistogramSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Buckets [HistBuckets]uint64
}

// Sub returns s - prev bucket by bucket.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum}
	for i := range s.Buckets {
		out.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
	}
	return out
}

// Mean returns the average observed duration, or zero with no
// observations.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}
