package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dsl"
	"repro/internal/lint"
	"repro/internal/relation"
	"repro/internal/value"
)

// specDir is where the .rel sources live, relative to the benchmark's
// working directory (the bench/ module root: `go run -C bench .` and
// `go test` both run there).
const specDir = "../spec"

// maxCols is the widest relation the benchmark drives; an op carries one
// int64 per column.
const maxCols = 4

// row is one tuple's values in schema column order (key columns first).
type row [maxCols]int64

// colMask selects a subset of a schema's columns by position.
type colMask uint8

// schema is one parsed, linted, adequacy-checked relation: the output of
// the synthesis front end plus the positional column layout the op
// streams use. Tuples are built with relation.SortedTuple, so the
// per-mask sorted column lists are computed once here.
type schema struct {
	nd    *dsl.NamedDecomp
	spec  *core.Spec
	dec   *decomp.Decomp
	cols  []string // op value order: key columns first
	nkey  int
	key   colMask
	all   colMask
	byMsk []maskCols // indexed by colMask
}

// maskCols is a column subset in name order (the order relation.Tuple
// keeps), with each column's position in schema.cols.
type maskCols struct {
	names []string
	idx   []int
}

// synthTimes are the front-end stage timings of one loadSchema call, for
// the per-layer synthesis rows.
type synthTimes struct {
	parse, adequacy time.Duration
}

// loadSchema runs the front half of the RELC pipeline on one .rel file:
// parse, lint, adequacy. keyCols fixes the op value order: the relation's
// key first, then the remaining columns in declaration order.
func loadSchema(file, decompName string, keyCols []string) (*schema, synthTimes, error) {
	var st synthTimes
	path := filepath.Join(specDir, file)
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	f, err := dsl.ParseFile(path, string(src))
	if err != nil {
		return nil, st, err
	}
	st.parse = time.Since(t0)
	nd := f.Decomp(decompName)
	if nd == nil {
		return nil, st, fmt.Errorf("%s declares no decomposition %q", path, decompName)
	}
	if ds := lint.CheckDecl(nd, lint.Options{}); len(ds) > 0 {
		return nil, st, fmt.Errorf("%s: lint: %v", path, ds[0])
	}
	t0 = time.Now()
	if err := nd.D.CheckAdequate(nd.For.Cols(), nd.For.FDs); err != nil {
		return nil, st, err
	}
	st.adequacy = time.Since(t0)

	sc := &schema{nd: nd, spec: nd.For, dec: nd.D, nkey: len(keyCols)}
	sc.cols = append(sc.cols, keyCols...)
	for _, c := range nd.For.Columns {
		if c.Type != core.IntCol {
			return nil, st, fmt.Errorf("%s: column %s is not an int", path, c.Name)
		}
		isKey := false
		for _, k := range keyCols {
			isKey = isKey || k == c.Name
		}
		if !isKey {
			sc.cols = append(sc.cols, c.Name)
		}
	}
	if len(sc.cols) > maxCols || len(sc.cols) != len(nd.For.Columns) {
		return nil, st, fmt.Errorf("%s: unsupported column layout %v", path, sc.cols)
	}
	sc.key = colMask(1)<<sc.nkey - 1
	sc.all = colMask(1)<<len(sc.cols) - 1
	sc.byMsk = make([]maskCols, sc.all+1)
	for m := colMask(0); m <= sc.all; m++ {
		var mc maskCols
		for i := range sc.cols {
			if m&(1<<i) != 0 {
				mc.idx = append(mc.idx, i)
			}
		}
		sort.Slice(mc.idx, func(a, b int) bool { return sc.cols[mc.idx[a]] < sc.cols[mc.idx[b]] })
		for _, i := range mc.idx {
			mc.names = append(mc.names, sc.cols[i])
		}
		sc.byMsk[m] = mc
	}
	return sc, st, nil
}

// mask returns the colMask of the named columns.
func (sc *schema) mask(names ...string) colMask {
	var m colMask
	for _, n := range names {
		found := false
		for i, c := range sc.cols {
			if c == n {
				m |= 1 << i
				found = true
			}
		}
		if !found {
			panic("bench: schema has no column " + n)
		}
	}
	return m
}

// tuple binds the columns of m to their values in v.
func (sc *schema) tuple(m colMask, v *row) relation.Tuple {
	mc := &sc.byMsk[m]
	vals := make([]value.Value, len(mc.idx))
	for j, i := range mc.idx {
		vals[j] = value.OfInt(v[i])
	}
	return relation.SortedTuple(mc.names, vals)
}

// rowOf reads a full tuple back into schema column order.
func (sc *schema) rowOf(t relation.Tuple) row {
	var v row
	mc := &sc.byMsk[sc.all]
	for j, i := range mc.idx {
		v[i] = t.ValueAt(j).Int()
	}
	return v
}

// sumOf adds every column of m in v: the per-row term of a query checksum.
func sumOf(m colMask, v *row) int64 {
	var s int64
	for i := 0; i < maxCols; i++ {
		if m&(1<<i) != 0 {
			s += v[i]
		}
	}
	return s
}
