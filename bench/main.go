package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	outDir = "out"
	// defaultSeed is the seed the sizes and bounds were tuned on;
	// checkSeed was never used for tuning and must pass too.
	defaultSeed = 1
	checkSeed   = 20110604
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		all     = flag.Bool("all", false, "run every workload")
		seed    = flag.Int64("seed", defaultSeed, "input seed")
		seconds = flag.Float64("seconds", runSeconds, "how long an untraced run measures")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
		smoke   = flag.Bool("smoke", false, "tiny sizes, for tests")
		runs    = flag.Int("runs", 1, "repeat each workload this many times (for compare)")
		out     = flag.String("o", "", "result file (default out/<workload>[-trace].json)")
	)
	flag.Parse()
	// One P: the one core this host grants reliably. Its second vCPU comes
	// and goes with the neighbours, and a run that leans on it (a
	// concurrent collector, a second client) measures them (README, "One
	// busy thread"). Only the traced run's two-party legs raise it.
	runtime.GOMAXPROCS(1)

	var defs []*workloadDef
	switch {
	case *all:
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	case findWorkload(*name) != nil:
		defs = append(defs, findWorkload(*name))
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	ok := true
	for _, w := range defs {
		file := resultFile{Env: stampEnv()}
		for i := 0; i < *runs; i++ {
			res, err := runOne(w, *seed, *seconds, *trace != 0, *smoke)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			file.Runs = append(file.Runs, res)
			ok = ok && res.Correct
		}
		path := *out
		if path == "" || *all {
			suffix := ""
			if *trace != 0 {
				suffix = "-trace"
			}
			path = filepath.Join(outDir, w.name+suffix+".json")
		}
		if err := file.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		last := file.Runs[len(file.Runs)-1]
		last.print(os.Stdout, path)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne does one run in a private temporary directory under out/.
func runOne(w *workloadDef, seed int64, seconds float64, trace, smoke bool) (*result, error) {
	sz := w.full
	if smoke {
		sz, seconds = w.smoke, 0 // the least number of cycles
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	start := time.Now()
	var res *result
	if trace {
		res, err = runTraced(w, seed, sz, tmp)
	} else {
		res, err = runE2E(w, seed, sz, time.Duration(seconds*float64(time.Second)), tmp)
	}
	if err != nil {
		return nil, err
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// resultFile is what a run writes: the stamp and one entry per run.
type resultFile struct {
	Env  env       `json:"env"`
	Runs []*result `json:"runs"`
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// print writes the human-readable report and, as the last line, the one
// JSON object the driver reads.
func (r *result) print(w io.Writer, path string) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  wall %.1fs  -> %s\n", r.Workload, r.Seed, r.Trace, r.WallS, path)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", n, m.Value, m.Unit)
	}
	for _, d := range informational {
		if m, ok := r.Info[d.name]; ok {
			fmt.Fprintf(w, "  %-36s %16.4f %s (not gated)\n", d.name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  samples %v  attempted %d  failed %d\n", r.Samples, r.Attempted, r.Failed)
	fmt.Fprintf(w, "  phases (s)")
	phases := make([]string, 0, len(r.PhaseS))
	for n := range r.PhaseS {
		phases = append(phases, n)
	}
	sort.Strings(phases)
	for _, n := range phases {
		fmt.Fprintf(w, " %s=%.2f", n, r.PhaseS[n])
	}
	fmt.Fprintln(w)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILURE %s\n", f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}
