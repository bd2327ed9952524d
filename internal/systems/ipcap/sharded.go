package ipcap

import (
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/relation"
)

// ShardedFlowTable is the concurrent tier of the flow table: the same
// FlowTable behaviour as SynthFlowTable, but over a core.ShardedRelation
// partitioned on the flow key (local, foreign) — which the spec's FD
// certifies as a key, so every Account and Drop locks exactly one shard
// and packet streams for distinct flows proceed in parallel.
type ShardedFlowTable struct {
	rel *core.ShardedRelation
}

// NewShardedFlowTable builds a concurrent flow table over the given
// decomposition with the given shard count (0 means core.DefaultShards).
func NewShardedFlowTable(d *decomp.Decomp, shards int) (*ShardedFlowTable, error) {
	rel, err := core.NewSharded(FlowSpec(), d, core.ShardOptions{
		ShardKey: []string{"local", "foreign"},
		Shards:   shards,
	})
	if err != nil {
		return nil, err
	}
	return &ShardedFlowTable{rel: rel}, nil
}

// Relation exposes the underlying sharded relation for tests and tuning.
func (t *ShardedFlowTable) Relation() *core.ShardedRelation { return t.rel }

// Account adds one packet to the flow. The read-increment-write sequence
// runs under the owning shard's exclusive lock via the engine's Upsert, so
// concurrent Accounts on the same flow never lose updates, Accounts on flows
// in different shards do not contend at all.
func (t *ShardedFlowTable) Account(key FlowKey, bytes int64) error {
	return t.rel.Upsert(flowPattern(key), func(cur relation.Tuple, found bool) (relation.Tuple, error) {
		if !found {
			return relation.NewTuple(
				relation.BindInt("packets", 1),
				relation.BindInt("bytes", bytes),
			), nil
		}
		return relation.NewTuple(
			relation.BindInt("packets", cur.MustGet("packets").Int()+1),
			relation.BindInt("bytes", cur.MustGet("bytes").Int()+bytes),
		), nil
	})
}

// Flows enumerates the table shard by shard. Each shard is consistent
// under its read lock; flows accounted concurrently with the enumeration
// may or may not appear, like any snapshot of a live table.
func (t *ShardedFlowTable) Flows(f func(FlowKey, FlowStats) bool) error {
	return t.rel.QueryFunc(relation.NewTuple(),
		[]string{"local", "foreign", "packets", "bytes"},
		func(got relation.Tuple) bool {
			key := FlowKey{
				Local:   uint32(got.MustGet("local").Int()),
				Foreign: uint32(got.MustGet("foreign").Int()),
			}
			return f(key, FlowStats{
				Packets: got.MustGet("packets").Int(),
				Bytes:   got.MustGet("bytes").Int(),
			})
		})
}

// Drop removes a flow under its shard's lock.
func (t *ShardedFlowTable) Drop(key FlowKey) error {
	_, err := t.rel.Remove(flowPattern(key))
	return err
}

// Len returns the number of live flows.
func (t *ShardedFlowTable) Len() int { return t.rel.Len() }
