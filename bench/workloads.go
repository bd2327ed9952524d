package main

// runSeconds is how long an untraced run measures by default
// (BENCHMARK.json's run_seconds): it makes identical cycles until that
// much time is spent. What a cycle does is fixed by the sizes below, so
// the same seed does exactly the same work in every cycle of every run; a
// slower host gets fewer cycles, not different ones.
const runSeconds = 28

// sizes are the counts one cycle of a workload does.
type sizes struct {
	Preload    int `json:"preload,omitempty"`     // tuples bulk-loaded in set-up
	Ops        int `json:"ops,omitempty"`         // ops per client per cycle
	Grid       int `json:"grid,omitempty"`        // graph: RoadNetwork(grid)
	Lookups    int `json:"lookups,omitempty"`     // graph: weight lookups per cycle
	HeapTuples int `json:"heap_tuples"`           // heap_bytes_per_tuple is measured over at least this many tuples
	ReaderOps  int `json:"reader_ops,omitempty"`  // scheduler: ops the background reader cycles through
	History    int `json:"history"`               // recovery leg and replication legs: mutations committed, then replayed from the log
	Live       int `json:"live"`                  // replication legs: leading part of Dark committed live, the writer waiting on the replica
	Dark       int `json:"dark"`                  // replication legs: mutations committed after the history, most with the follower severed
	TailReps   int `json:"tail_reps"`             // replication legs: repetitions, each on its own copy
	Boots      int `json:"boots"`                 // replication legs: fresh followers bootstrapped per repetition
	LadderOps  int `json:"ladder_ops"`            // traced run: ops per ladder rung
	LadderGrid int `json:"ladder_grid,omitempty"` // traced run, graph: RoadNetwork(grid) on every rung
}

// workloadDef is one named workload: which relation, which stack, which
// generator, how big.
type workloadDef struct {
	name, why string
	specFile  string
	decomp    string
	keyCols   []string
	tier      tier // the stack the steady phase drives
	metrics   bool // obs.Metrics attached in the steady phase
	gen       func(sc *schema, sz sizes, seed int64) *inputs
	full      sizes
	smoke     sizes
}

var workloads = []workloadDef{
	{
		name:     "flows-commit",
		why:      "1 writer through validate, COW fork, WAL append, commit sink, socket and follower apply, then replay of a 30k-commit log: the whole commit path and recovery, and little else",
		specFile: "flows.rel", decomp: "flows", keyCols: []string{"local", "foreign"},
		tier: tierReplicated, metrics: true,
		gen:   genFlowsCommit,
		full:  sizes{HeapTuples: 30_000, Preload: 20_000, Ops: 3_000, History: 30_000, Live: 1024, Dark: 12_000, TailReps: 2, Boots: 4, LadderOps: 3_000},
		smoke: sizes{HeapTuples: 2_000, Preload: 500, Ops: 2_000, History: 300, Live: 40, Dark: 150, TailReps: 1, Boots: 1, LadderOps: 400, LadderGrid: 12},
	},
	{
		name:     "flows-read",
		why:      "1 reader, first on the primary then on the replica, on point, per-host scan and range shapes: plan cache, executors, snapshot load and shard routing; WAL and COW nearly idle",
		specFile: "flows.rel", decomp: "flows", keyCols: []string{"local", "foreign"},
		tier: tierReplicated, metrics: true,
		gen:   genFlowsRead,
		full:  sizes{HeapTuples: 30_000, Preload: 30_000, Ops: 2_000, History: 15_000, Live: 1024, Dark: 12_000, TailReps: 2, Boots: 4, LadderOps: 6_000},
		smoke: sizes{HeapTuples: 2_000, Preload: 2_000, Ops: 2_000, History: 300, Live: 40, Dark: 150, TailReps: 1, Boots: 1, LadderOps: 400, LadderGrid: 12},
	},
	{
		name:     "graph-query",
		why:      "the paper's section 6.1 DFS client on a bare relation: planner, executors, in-place writes and containers only; bypasses every storage tier",
		specFile: "graphedges.rel", decomp: "graphedges", keyCols: []string{"src", "dst"},
		tier:  tierBare,
		gen:   genGraph,
		full:  sizes{HeapTuples: 30_000, Grid: 141, Lookups: 50_000, History: 5_000, Live: 512, Dark: 3_000, TailReps: 2, Boots: 4, LadderOps: 8_000, LadderGrid: 60},
		smoke: sizes{HeapTuples: 2_000, Grid: 16, Lookups: 500, History: 300, Live: 40, Dark: 150, TailReps: 1, Boots: 1, LadderOps: 400, LadderGrid: 12},
	},
	{
		name:     "sched-cow",
		why:      "the paper's section 1 scheduler on the MVCC tier with a paced snapshot reader racing it: the same COW layer as flows-commit, but cloning long lists",
		specFile: "scheduler.rel", decomp: "processes", keyCols: []string{"ns", "pid"},
		tier:  tierSync,
		gen:   genSched,
		full:  sizes{HeapTuples: 30_000, Ops: 10_000, ReaderOps: 4_096, History: 9_000, Live: 1024, Dark: 4_000, TailReps: 2, Boots: 16, LadderOps: 8_000},
		smoke: sizes{HeapTuples: 2_000, Ops: 3_000, ReaderOps: 256, History: 300, Live: 40, Dark: 150, TailReps: 1, Boots: 1, LadderOps: 400, LadderGrid: 12},
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
