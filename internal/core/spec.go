// Package core is the public engine of the library: a core.Relation bundles
// a relational specification (§2), a decomposition (§3), a decomposition
// instance, and a query planner (§4) behind the five-operation relational
// interface the paper's generated C++ classes expose — empty (New), insert,
// remove, update, and query.
//
// Use it directly for dynamically-chosen decompositions (it is what the
// autotuner drives), or run the relc code generator to emit a standalone,
// specialized Go implementation of the same interface.
package core

import (
	"fmt"
	"sync"

	"repro/internal/fd"
	"repro/internal/relation"
	"repro/internal/value"
)

// ColType is the declared type of a column. The paper's relations are
// untyped; declared types let the engine validate tuples at the boundary
// and let the code generator emit concrete field types.
type ColType uint8

// Column types.
const (
	IntCol ColType = iota
	StringCol
)

// String names the type as it appears in .rel sources.
func (t ColType) String() string {
	if t == IntCol {
		return "int"
	}
	return "string"
}

// A ColDef declares one column.
type ColDef struct {
	Name string
	Type ColType
}

// A Spec is a relational specification: a named set of typed columns and a
// set of functional dependencies.
type Spec struct {
	Name    string
	Columns []ColDef
	FDs     fd.Set

	colsOnce sync.Once
	colsVal  relation.Cols
	kinds    []value.Kind // the value kind of each column of colsVal, in its order
}

// Cols returns the column set of the specification. The set is computed once
// and cached: Cols sits on every operation's validation path, and Columns is
// fixed after construction. Beside it goes each column's value kind, in the
// set's order, so a full tuple is type-checked by position.
//
//relvet:role=cachefill
func (s *Spec) Cols() relation.Cols {
	s.colsOnce.Do(func() {
		names := make([]string, len(s.Columns))
		for i, c := range s.Columns {
			names[i] = c.Name
		}
		s.colsVal = relation.NewCols(names...)
		s.kinds = make([]value.Kind, s.colsVal.Len())
		for i, name := range s.colsVal.Names() {
			if t, _ := s.Type(name); t == StringCol {
				s.kinds[i] = value.String
			}
		}
	})
	return s.colsVal
}

// Signature is the relation's column signature — name:type per column in
// declaration order. It is the identity a durable directory's manifest pins
// and a replication hello carries, so a subscription is refused exactly when
// durable.Open would refuse the directory.
func (s *Spec) Signature() []string {
	sig := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		sig[i] = c.Name + ":" + c.Type.String()
	}
	return sig
}

// Type returns the declared type of the named column.
func (s *Spec) Type(name string) (ColType, bool) {
	for _, c := range s.Columns {
		if c.Name == name {
			return c.Type, true
		}
	}
	return 0, false
}

// Validate checks the specification's internal consistency.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("core: specification has no name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("core: relation %q has no columns", s.Name)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("core: relation %q has an unnamed column", s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("core: relation %q declares column %q twice", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	cols := s.Cols()
	for _, f := range s.FDs.All() {
		if !f.From.SubsetOf(cols) || !f.To.SubsetOf(cols) {
			return fmt.Errorf("core: relation %q has FD %v over undeclared columns", s.Name, f)
		}
	}
	return nil
}

// CheckTuple verifies that every column bound by t is declared with a
// matching type. If full is set, t must bind exactly the relation's
// columns.
//
// Both t's columns and the relation's are sorted, so the check is one merge
// of the two: a full tuple is one Dom comparison and then each value's kind
// against the kind of the column at its position.
func (s *Spec) CheckTuple(t relation.Tuple, full bool) error {
	cols := s.Cols()
	if full && !t.Dom().Equal(cols) {
		return fmt.Errorf("core: tuple %v does not cover the columns %v of relation %q", t, cols, s.Name)
	}
	names, j := cols.Names(), 0
	for i, col := range t.Dom().Names() {
		if !full {
			for j < len(names) && names[j] < col {
				j++
			}
			if j == len(names) || names[j] != col {
				return fmt.Errorf("core: relation %q has no column %q", s.Name, col)
			}
		}
		if v := t.ValueAt(i); v.Kind() != s.kinds[j] {
			return fmt.Errorf("core: column %q of relation %q is %v, got %v", col, s.Name, s.kinds[j], v)
		}
		j++
	}
	return nil
}
