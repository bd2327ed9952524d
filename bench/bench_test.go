package main

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/relation"
)

func specNames(ms []metricSpec) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func resultNames(r *result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload and one traced run at smoke sizes and
// holds what they print to BENCHMARK.json: same workloads, same metric
// names and units, nothing failed, no end-to-end metric zero.
func TestSmoke(t *testing.T) {
	spec, err := readBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var table []string
	for _, w := range workloads {
		table = append(table, w.name)
	}
	if !slices.Equal(names, table) {
		t.Fatalf("BENCHMARK.json workloads %v, bench runs %v", names, table)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, sizes are tuned for %d", spec.RunSeconds, runSeconds)
	}
	units := map[string]string{}
	for _, m := range slices.Concat(spec.EndToEnd, spec.PerLayer) {
		units[m.Name] = m.Unit
	}
	verify := func(r *result, want []metricSpec) {
		t.Helper()
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Failures)
		}
		if got, want := resultNames(r), specNames(want); !slices.Equal(got, want) {
			t.Errorf("%s (trace=%v) printed metrics\n%v\nBENCHMARK.json lists\n%v", r.Workload, r.Trace, got, want)
		}
		for n, m := range r.Metrics {
			if m.Unit != units[n] {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", r.Workload, n, m.Unit, units[n])
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!r.Trace && m.Value <= 0) {
				t.Errorf("%s: %s = %v", r.Workload, n, m.Value)
			}
		}
	}
	for i := range workloads {
		r, err := runOne(&workloads[i], defaultSeed, runSeconds, false, true)
		if err != nil {
			t.Fatalf("%s: %v", workloads[i].name, err)
		}
		verify(r, spec.EndToEnd)
	}
	r, err := runOne(findWorkload("flows-commit"), checkSeed, runSeconds, true, true)
	if err != nil {
		t.Fatal(err)
	}
	verify(r, spec.PerLayer)

	// The driver's last line: one JSON object, exactly four keys.
	var buf bytes.Buffer
	r.print(&buf, "out/x.json")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	for _, key := range []string{`{"correct":`, `"attempted":`, `"failed":`, `"metrics":{`} {
		if !strings.Contains(last, key) {
			t.Errorf("last line lacks %s: %.120s", key, last)
		}
	}
}

// TestModelIsTheOracle replays every workload's preload and writer stream,
// op by op, on the internal/relation reference implementation — which the
// timed runs cannot afford, its removes and updates being linear scans —
// and holds the generator's model to it: every expected read result, every
// expected affected-tuple count, and the final state.
func TestModelIsTheOracle(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		sc, _, err := loadSchema(w.specFile, w.decomp, w.keyCols)
		if err != nil {
			t.Fatal(err)
		}
		in := w.gen(sc, w.smoke, checkSeed)
		ref := relation.Empty(sc.spec.Cols())
		for j := range in.preload {
			if err := ref.Insert(sc.tuple(sc.all, &in.preload[j])); err != nil {
				t.Fatal(err)
			}
		}
		// flows-read generates its replica reader against the preloaded
		// state, before the writer; replay in that order.
		order := []int{0}
		if len(in.clients) > 1 && !in.clients[1].background {
			order = []int{1, 0}
		}
		for _, ci := range order {
			c := &in.clients[ci]
			for j := range c.ops {
				checkAgainstOracle(t, w.name, sc, ref, &c.ops[j])
			}
		}
		if err := sameState(ref, in.final.tuples(), nil); err != nil {
			t.Errorf("%s: model after the stream: %v", w.name, err)
		}
		if t.Failed() {
			return
		}
	}
}

func checkAgainstOracle(t *testing.T, name string, sc *schema, ref *relation.Relation, o *op) {
	t.Helper()
	key := sc.tuple(sc.key, &o.v)
	switch o.kind {
	case opInsert:
		ref.Insert(sc.tuple(sc.all, &o.v))
	case opReplace:
		ref.Remove(key)
		ref.Insert(sc.tuple(sc.all, &o.v))
	case opRemove:
		if n := ref.Remove(key); n != int(o.rows) {
			t.Fatalf("%s: %+v: oracle removed %d", name, *o, n)
		}
	case opUpdate:
		if n := ref.Update(key, sc.tuple(o.out, &o.v)); n != int(o.rows) {
			t.Fatalf("%s: %+v: oracle updated %d", name, *o, n)
		}
	default:
		var got []relation.Tuple
		out := relation.NewCols(sc.byMsk[o.out].names...)
		if o.kind == opRange {
			for x := o.v[0]; x <= o.v[1]; x++ {
				got = append(got, ref.Query(sc.tuple(o.in, &row{x}), out)...)
			}
		} else {
			got = ref.Query(sc.tuple(o.in, &o.v), out)
		}
		var sum int64
		for _, tu := range got {
			sum += tupleSum(tu)
		}
		if o.check >= checkRows && len(got) != int(o.rows) || o.check == checkFull && sum != o.sum {
			t.Fatalf("%s: %+v: oracle says %d rows, checksum %d", name, *o, len(got), sum)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	file := func(ops, read, setup []float64) *resultFile {
		f := &resultFile{}
		for i := range ops {
			f.Runs = append(f.Runs, &result{Workload: "w", Metrics: map[string]metricValue{
				"ops_per_s":   {Value: ops[i]},
				"read_p50_us": {Value: read[i]},
				"setup_s":     {Value: setup[i]},
			}})
		}
		return f
	}
	old := file([]float64{100, 101, 99, 100, 100}, []float64{10, 10, 10, 10, 10}, []float64{1, 1, 1, 1, 1})
	// Throughput down 20% (regression), latency down (fine), set-up so
	// noisy that no verdict is possible.
	cur := file([]float64{80, 81, 79, 80, 80}, []float64{8, 8, 8, 8, 8}, []float64{0.5, 1, 1.5, 2, 1})
	var buf bytes.Buffer
	if !compare(&buf, spec, old, cur) {
		t.Errorf("a 20%% throughput drop past a 10%% bound did not fail:\n%s", buf.String())
	}
	for _, want := range []string{"| w | ops_per_s | 1/s | higher |", "REGRESSION", "unresolved", "| ok |"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if compare(&buf, spec, old, old) {
		t.Errorf("a file regressed against itself:\n%s", buf.String())
	}
}
