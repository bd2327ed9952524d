package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkFile is where the benchmark's contract lives, relative to the
// bench/ working directory.
const benchmarkFile = "../BENCHMARK.json"

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchSpec() (*benchSpec, error) {
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	return &spec, nil
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the benchmark's acceptance rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one metric × workload cell of one result file.
type side struct {
	median, spread float64
	n              int
}

func reduce(f *resultFile) map[[2]string]side {
	vals := map[[2]string][]float64{}
	for _, r := range f.Runs {
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			vals[k] = append(vals[k], m.Value)
		}
	}
	out := map[[2]string]side{}
	for k, xs := range vals {
		q1, q2, q3 := quartiles(xs)
		sd := side{median: q2, n: len(xs)}
		if q2 != 0 {
			sd.spread = (q3 - q1) / q2
		}
		out[k] = sd
	}
	return out
}

// verdict applies one metric's bound to one cell. A cell whose run-to-run
// spread, on either side, is wider than the bound cannot be called
// unchanged: it is unresolved.
func verdict(m metricSpec, old, new side) (worse float64, v string) {
	if old.median == 0 {
		return 0, "no baseline"
	}
	worse = (new.median - old.median) / old.median
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case m.Bound == 0:
		return worse, "per-layer"
	case max(old.spread, new.spread) > m.Bound:
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "REGRESSION"
	}
	return worse, "ok"
}

// compare prints the delta table of two result files and reports whether
// any end-to-end cell regressed.
func compare(w io.Writer, spec *benchSpec, oldF, newF *resultFile) (regressed bool) {
	olds, news := reduce(oldF), reduce(newF)
	fmt.Fprintln(w, "| workload | metric | unit | better | old median (n, spread) | new median (n, spread) | worse by | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, wl := range spec.Workloads {
		for _, m := range slices.Concat(spec.EndToEnd, spec.PerLayer) {
			k := [2]string{wl.Name, m.Name}
			o, okOld := olds[k]
			n, okNew := news[k]
			if !okOld || !okNew {
				continue
			}
			worse, v := verdict(m, o, n)
			regressed = regressed || v == "REGRESSION"
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %.4g (%d, %.1f%%) | %.4g (%d, %.1f%%) | %+.1f%% | %s | %s |\n",
				wl.Name, m.Name, m.Unit, m.Better, o.median, o.n, 100*o.spread, n.median, n.n, 100*n.spread, 100*worse, bound, v)
		}
	}
	return regressed
}

// compareMain is `bench compare <old.json> <new.json>`.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <old.json> <new.json>")
		return 2
	}
	spec, err := readBenchSpec()
	if err == nil {
		var oldF, newF *resultFile
		if oldF, err = readResultFile(args[0]); err == nil {
			newF, err = readResultFile(args[1])
		}
		if err == nil {
			if compare(os.Stdout, spec, oldF, newF) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
	return 2
}
