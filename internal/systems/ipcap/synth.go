package ipcap

import (
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/relation"
)

// SynthFlowTable is the synthesized flow table: the same FlowTable
// behaviour as the hand-coded one, but every data-structure decision lives
// in the decomposition.
type SynthFlowTable struct {
	rel *core.Relation
}

// NewSynthFlowTable builds a flow table over the given decomposition,
// which must be adequate for FlowSpec (use DefaultFlowDecomp for the tuned
// one).
func NewSynthFlowTable(d *decomp.Decomp) (*SynthFlowTable, error) {
	rel, err := core.New(FlowSpec(), d)
	if err != nil {
		return nil, err
	}
	return &SynthFlowTable{rel: rel}, nil
}

// WrapRelation adapts an existing relation over FlowSpec into a flow
// table; the autotuner hands candidates to the benchmark this way.
func WrapRelation(rel *core.Relation) *SynthFlowTable {
	return &SynthFlowTable{rel: rel}
}

func flowPattern(key FlowKey) relation.Tuple {
	return relation.NewTuple(
		relation.BindInt("local", int64(key.Local)),
		relation.BindInt("foreign", int64(key.Foreign)),
	)
}

// Account adds one packet to the flow: a point query for the current
// counters followed by an in-place update, or an insert for a new flow.
func (t *SynthFlowTable) Account(key FlowKey, bytes int64) error {
	pat := flowPattern(key)
	var cur FlowStats
	found := false
	err := t.rel.QueryFunc(pat, []string{"packets", "bytes"}, func(got relation.Tuple) bool {
		cur.Packets = got.MustGet("packets").Int()
		cur.Bytes = got.MustGet("bytes").Int()
		found = true
		return false
	})
	if err != nil {
		return err
	}
	if !found {
		return t.rel.Insert(pat.Merge(relation.NewTuple(
			relation.BindInt("packets", 1),
			relation.BindInt("bytes", bytes),
		)))
	}
	_, err = t.rel.Update(pat, relation.NewTuple(
		relation.BindInt("packets", cur.Packets+1),
		relation.BindInt("bytes", cur.Bytes+bytes),
	))
	return err
}

// Flows enumerates the table.
func (t *SynthFlowTable) Flows(f func(FlowKey, FlowStats) bool) error {
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

// Drop removes a flow.
func (t *SynthFlowTable) Drop(key FlowKey) error {
	_, err := t.rel.Remove(flowPattern(key))
	return err
}

// Len returns the number of live flows.
func (t *SynthFlowTable) Len() int { return t.rel.Len() }
