package core

// The EXPLAIN surface: every engine tier can report, for a query shape,
// which plan it would run and with what provenance — the §4.3 cost
// estimate the planner chose it by, whether the shape was already in the
// plan cache, which execution tier it runs on (closure program, point
// plan, or the Figure 7 interpreter), and, for the sharded tier, whether
// the shape routes to one shard or fans out. cmd/relc -explain and
// cmd/paperbench explain render it for the spec corpus.

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// A QueryExplain describes how the engine executes one query shape.
type QueryExplain struct {
	Relation string   // spec name
	Input    []string // columns the pattern binds
	Output   []string // columns the query produces

	Plan    string  // chosen plan in the paper's Figure 7 notation
	Tree    string  // plan.Explain tree: per-node cost/row annotations
	Cost    float64 // §4.3 whole-plan cost estimate
	EstRows int     // planner's row estimate (clamped like execution's)

	Cached   bool // the shape was in the plan cache before this call
	Compiled bool // runs as a compiled closure program
	Point    bool // has a compiled point-access path (superkey patterns)

	// Vectorized reports that the shape lowered to a batch program and the
	// relation will try it first; the closure program remains the fallback
	// for executions that bail out at run time (Metrics.VecFallbacks counts
	// those).
	Vectorized bool

	// Routing is set only by the sharded tier: "routed" when the input
	// binds the shard key (one shard serves it), "fan-out" otherwise.
	Routing string
	Shards  int // fan-out width; 0 for single-tier explains

	// Durable is set by the durable tier: writes to the relation are
	// write-ahead logged. Query execution itself is untouched by logging.
	Durable bool

	// Snapshot is set by the MVCC tiers (SyncRelation, ShardedRelation):
	// the explanation was produced against an atomically-published
	// snapshot, whose version number is SnapshotVersion (shard 0's version
	// on the sharded tier).
	Snapshot        bool
	SnapshotVersion uint64
}

// String renders the explanation as text, ending with the annotated tree.
func (e *QueryExplain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "relation %s: query {%s} -> {%s}\n",
		e.Relation, strings.Join(e.Input, ","), strings.Join(e.Output, ","))
	switch e.Routing {
	case "":
	case "fan-out":
		fmt.Fprintf(&b, "routing: fan-out over %d shards\n", e.Shards)
	default:
		fmt.Fprintf(&b, "routing: %s\n", e.Routing)
	}
	if e.Snapshot {
		fmt.Fprintf(&b, "snapshot: version %d\n", e.SnapshotVersion)
	}
	var tags []string
	if e.Cached {
		tags = append(tags, "cached")
	}
	if e.Compiled {
		tags = append(tags, "compiled")
	}
	if e.Vectorized {
		tags = append(tags, "vectorized")
	}
	if e.Point {
		tags = append(tags, "point")
	}
	if e.Durable {
		tags = append(tags, "durable")
	}
	suffix := ""
	if len(tags) > 0 {
		suffix = " (" + strings.Join(tags, ", ") + ")"
	}
	fmt.Fprintf(&b, "plan: %s%s\n", e.Plan, suffix)
	fmt.Fprintf(&b, "cost=%.2f est_rows=%d\n", e.Cost, e.EstRows)
	b.WriteString(e.Tree)
	return b.String()
}

// ExplainQuery reports how this relation executes a query binding exactly
// the input columns and producing the output columns. Explaining a shape
// plans, compiles and promotes it exactly like running it would, so the
// Cached flag reflects the state before the call and later executions of
// the shape are cache hits.
//
//relvet:role=read
func (r *Relation) ExplainQuery(input, output []string) (*QueryExplain, error) {
	in := relation.NewCols(input...)
	out := relation.NewCols(output...)
	cached := r.planCached(in, out)
	cand, err := r.planFor(in, out)
	if err != nil {
		return nil, err
	}
	return &QueryExplain{
		Relation:   r.spec.Name,
		Input:      in.Names(),
		Output:     out.Names(),
		Plan:       cand.Op.String(),
		Tree:       r.planner.Explain(cand.Op),
		Cost:       cand.Cost,
		EstRows:    cand.EstimatedRows(),
		Cached:     cached,
		Compiled:   cand.Prog != nil,
		Point:      cand.Point != nil,
		Vectorized: cand.Batch != nil,
	}, nil
}

// planCached reports whether the shape is already in the plan cache,
// without counting a metrics hit or planning on miss.
func (r *Relation) planCached(input, output relation.Cols) bool {
	var sigArr [96]byte
	buf := input.AppendKey(sigArr[:0])
	buf = append(buf, '|')
	buf = output.AppendKey(buf)
	_, ok := r.plans.get(string(buf))
	return ok
}

// ExplainQuery reports how the sharded tier executes the shape: the plan
// provenance from shard 0 (all shards share one plan cache, so the chosen
// plan and its compilation state are shard-independent, and the snapshot
// version is shard 0's) plus the routing decision the input's columns
// produce.
//
//relvet:role=read
func (sr *ShardedRelation) ExplainQuery(input, output []string) (*QueryExplain, error) {
	e, err := sr.shards[0].explain(input, output)
	if err != nil {
		return nil, err
	}
	if sr.ro.key.SubsetOf(relation.NewCols(input...)) {
		e.Routing = "routed"
	} else {
		e.Routing = "fan-out"
		e.Shards = len(sr.shards)
	}
	return e, nil
}
