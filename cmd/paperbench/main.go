// Command paperbench regenerates every table and figure of the paper's
// evaluation (§6) as text output.
//
// Usage:
//
//	paperbench fig11 [-grid N] [-maxedges N] [-timeout D] [-assignments N]
//	paperbench fig12
//	paperbench fig13 [-packets N] [-maxedges N] [-timeout D] [-assignments N]
//	paperbench table1
//	paperbench parity [-scale N]
//	paperbench explain
//	paperbench all
//
// Absolute numbers depend on the machine (and on this being an interpreted
// runtime rather than the paper's compiled C++); the shapes — which
// decompositions win, by what factors, and which never finish — are the
// reproduction targets. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/paperex"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "fig11":
		err = fig11(args)
	case "fig12":
		err = fig12()
	case "fig13":
		err = fig13(args)
	case "table1":
		err = table1()
	case "parity":
		err = parity(args)
	case "explain":
		err = explain()
	case "all":
		if err = fig12(); err == nil {
			if err = table1(); err == nil {
				if err = parity(nil); err == nil {
					if err = fig11(nil); err == nil {
						err = fig13(nil)
					}
				}
			}
		}
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: paperbench {fig11|fig12|fig13|table1|parity|explain|all} [flags]")
	os.Exit(2)
}

func fig11(args []string) error {
	fs := flag.NewFlagSet("fig11", flag.ExitOnError)
	cfg := experiments.DefaultFig11Config()
	fs.IntVar(&cfg.GridN, "grid", cfg.GridN, "road network grid size (N×N nodes)")
	fs.IntVar(&cfg.MaxEdges, "maxedges", cfg.MaxEdges, "decomposition size bound")
	fs.DurationVar(&cfg.Timeout, "timeout", cfg.Timeout, "per-candidate deadline (the paper's 8s cutoff)")
	fs.IntVar(&cfg.MaxAssignments, "assignments", cfg.MaxAssignments, "data-structure assignments per shape")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("== Figure 11: directed-graph benchmark, decompositions ≤ size %d ==\n", cfg.MaxEdges)
	fmt.Printf("road network %d×%d, per-candidate deadline %v\n\n", cfg.GridN, cfg.GridN, cfg.Timeout)
	start := time.Now()
	rows, err := experiments.Fig11(cfg)
	if err != nil {
		return err
	}
	tags := map[string]string{
		paperex.GraphDecomp1().CanonicalShape(): " [= paper decomposition 1]",
		paperex.GraphDecomp5().CanonicalShape(): " [= paper decomposition 5]",
		paperex.GraphDecomp9().CanonicalShape(): " [= paper decomposition 9]",
	}
	finished := 0
	fmt.Printf("%-5s %-10s %-10s %-10s  %s\n", "rank", "F(s)", "F+B(s)", "F+B+D(s)", "decomposition (best data-structure assignment)")
	for i, row := range rows {
		if row.Failed {
			continue
		}
		finished++
		fmt.Printf("%-5d %-10.4f %-10s %-10s  %s%s\n",
			i+1, row.Times.F, fmtTime(row.Times.FB), fmtTime(row.Times.FBD), oneLine(row.Decomp.String()),
			tags[row.Decomp.CanonicalShape()])
	}
	fmt.Printf("\n%d of %d decompositions finished the forward benchmark within the deadline;\n", finished, len(rows))
	fmt.Printf("%d did not (the paper elides 68 of its 84 for the same reason). Sweep took %v.\n\n", len(rows)-finished, time.Since(start).Round(time.Second))
	return nil
}

func fig12() error {
	fmt.Println("== Figure 12: representative decompositions of the edge relation ==")
	for _, name := range []string{"decomposition 1", "decomposition 5", "decomposition 9"} {
		d := experiments.Fig12()[name]
		fmt.Printf("\n-- %s --\n%s\n\nGraphviz:\n%s", name, d, d.Dot(strings.ReplaceAll(name, " ", "_")))
	}
	fmt.Println()
	return nil
}

func fig13(args []string) error {
	fs := flag.NewFlagSet("fig13", flag.ExitOnError)
	cfg := experiments.DefaultFig13Config()
	fs.IntVar(&cfg.Packets, "packets", cfg.Packets, "packets in the trace (paper: 300000)")
	fs.IntVar(&cfg.MaxEdges, "maxedges", cfg.MaxEdges, "decomposition size bound")
	fs.DurationVar(&cfg.Timeout, "timeout", cfg.Timeout, "per-candidate deadline (the paper's 30s cutoff)")
	fs.IntVar(&cfg.MaxAssignments, "assignments", cfg.MaxAssignments, "data-structure assignments per shape")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("== Figure 13: IpCap flow accounting, decompositions ≤ size %d ==\n", cfg.MaxEdges)
	fmt.Printf("%d random packets, per-candidate deadline %v\n\n", cfg.Packets, cfg.Timeout)
	start := time.Now()
	rows, err := experiments.Fig13(cfg)
	if err != nil {
		return err
	}
	finished := 0
	fmt.Printf("%-5s %-10s  %s\n", "rank", "time(s)", "decomposition (best data-structure assignment)")
	for i, row := range rows {
		if row.Failed {
			continue
		}
		finished++
		fmt.Printf("%-5d %-10.4f  %s\n", i+1, row.Seconds, oneLine(row.Decomp.String()))
	}
	fmt.Printf("\n%d of %d decompositions finished within the deadline; %d did not\n", finished, len(rows), len(rows)-finished)
	fmt.Printf("(the paper shows 26 of 84 finishing within 30s). Sweep took %v.\n\n", time.Since(start).Round(time.Second))
	return nil
}

func table1() error {
	rows, err := experiments.Table1()
	if err != nil {
		return err
	}
	fmt.Println("== Table 1: non-comment lines of code (this repository's Go modules) ==")
	fmt.Printf("%-10s %-22s %-22s %s\n", "system", "hand-coded module", "synthesized module", "spec+decomposition")
	for _, r := range rows {
		fmt.Printf("%-10s %-22d %-22d %d\n", r.System, r.Original, r.SynthModule, r.Decomposition)
	}
	fmt.Println()
	return nil
}

func parity(args []string) error {
	fs := flag.NewFlagSet("parity", flag.ExitOnError)
	scale := fs.Int("scale", 1, "workload scale multiplier")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("== §6.2 performance parity: hand-coded vs synthesized variants ==")
	rows, err := experiments.RunParity(*scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-11s %-11s %-11s %-10s %-12s %s\n", "system", "hand(s)", "engine(s)", "relc(s)", "relc/hand", "engine/relc", "behaviour")
	for _, r := range rows {
		agree := "identical"
		if !r.Agree {
			agree = "DIVERGED"
		}
		fmt.Printf("%-10s %-11.4f %-11.4f %-11.4f %-10.2f %-12.2f %s\n",
			r.System, r.HandSecs, r.SynthSecs, r.GenSecs, r.GenSecs/r.HandSecs, r.SynthSecs/r.GenSecs, agree)
	}
	fmt.Println()
	return nil
}

func fmtTime(s float64) string {
	if s < 0 {
		return "-"
	}
	return fmt.Sprintf("%.4f", s)
}

// oneLine compresses a let-notation decomposition onto one line.
func oneLine(s string) string {
	s = strings.ReplaceAll(s, "\n", " ")
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 150 {
		s = s[:147] + "..."
	}
	return s
}
