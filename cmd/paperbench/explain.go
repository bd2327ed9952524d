package main

// The explain subcommand: for each corpus relation, print how the engine
// executes its characteristic query shapes — the chosen Figure 7 plan, the
// §4.3 cost and cardinality estimates per node, the execution tier (batch
// program, or the interpreter a shape without one runs on), and for the
// flows relation the sharded tier's routing decision. This is the
// same core.ExplainQuery surface applications get at runtime.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/experiments"
	"repro/internal/paperex"
	"repro/internal/systems/ipcap"
)

type explainCase struct {
	name   string
	spec   *core.Spec
	decomp *decomp.Decomp
	shapes [][2][]string // {input, output} pairs
}

func schedulerSpec() *core.Spec {
	return &core.Spec{
		Name: "processes",
		Columns: []core.ColDef{
			{Name: "ns", Type: core.IntCol}, {Name: "pid", Type: core.IntCol},
			{Name: "state", Type: core.IntCol}, {Name: "cpu", Type: core.IntCol},
		},
		FDs: paperex.SchedulerFDs(),
	}
}

func explain() error {
	graphShapes := [][2][]string{
		{{"src"}, {"dst"}},
		{{"dst"}, {"src"}},
		{{"src", "dst"}, {"weight"}},
	}
	cases := []explainCase{
		{"scheduler (fig 2a)", schedulerSpec(), paperex.SchedulerDecomp(), [][2][]string{
			{{"ns", "pid"}, {"cpu"}},
			{{"state"}, {"ns", "pid"}},
			{nil, {"ns", "pid", "state", "cpu"}},
		}},
		{"graph decomposition 1", experiments.GraphSpec(), paperex.GraphDecomp1(), graphShapes},
		{"graph decomposition 5", experiments.GraphSpec(), paperex.GraphDecomp5(), graphShapes},
		{"graph decomposition 9", experiments.GraphSpec(), paperex.GraphDecomp9(), graphShapes},
		{"ipcap flows (default)", ipcap.FlowSpec(), ipcap.DefaultFlowDecomp(), [][2][]string{
			{{"local", "foreign"}, {"packets", "bytes"}},
			{{"local"}, {"foreign", "bytes"}},
		}},
		{"ipcap flows (transposed)", ipcap.FlowSpec(), ipcap.TransposedFlowDecomp(), [][2][]string{
			{{"local", "foreign"}, {"packets", "bytes"}},
			{{"local"}, {"foreign", "bytes"}},
		}},
	}
	for _, c := range cases {
		fmt.Printf("== %s ==\n\n", c.name)
		r, err := core.New(c.spec, c.decomp)
		if err != nil {
			return fmt.Errorf("%s: %v", c.name, err)
		}
		for _, s := range c.shapes {
			e, err := r.ExplainQuery(s[0], s[1])
			if err != nil {
				return fmt.Errorf("%s {%v}->{%v}: %v", c.name, s[0], s[1], err)
			}
			fmt.Println(e.String())
		}
	}

	// The sharded tier adds a routing decision per shape: patterns binding
	// the shard key lock one shard, the rest fan out.
	fmt.Printf("== ipcap flows, sharded engine ==\n\n")
	sr, err := core.NewSharded(ipcap.FlowSpec(), ipcap.DefaultFlowDecomp(), core.ShardOptions{
		ShardKey: []string{"local", "foreign"},
	})
	if err != nil {
		return err
	}
	for _, s := range [][2][]string{
		{{"local", "foreign"}, {"packets", "bytes"}},
		{{"local"}, {"foreign", "bytes"}},
	} {
		e, err := sr.ExplainQuery(s[0], s[1])
		if err != nil {
			return err
		}
		fmt.Println(e.String())
	}
	return nil
}
