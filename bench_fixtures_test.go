package repro

// Shared fixtures for the root benchmark harness: relation builders used
// by the figure benchmarks and the scale-sanity tests (bench_test.go),
// parameterized over testing.TB so both build identical workloads.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/experiments"
	"repro/internal/workload"
)

const benchGridN = 16

// graphBenchRelation builds the Figure 11 graph relation over d with the
// reduced road-network workload.
func graphBenchRelation(tb testing.TB, d *decomp.Decomp) (*core.Relation, []workload.GraphEdge, int) {
	tb.Helper()
	r, err := core.New(experiments.GraphSpec(), d)
	if err != nil {
		tb.Fatal(err)
	}
	return r, workload.RoadNetwork(benchGridN, 11), workload.NodeCount(benchGridN)
}
