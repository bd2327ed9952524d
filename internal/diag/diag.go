// Package diag defines the positioned, coded, severity-ranked diagnostics
// shared by the static-analysis plane: the declint engine (internal/lint),
// the adequacy judgment (internal/decomp), the DSL front end, and the
// relvet multichecker. A Diagnostic pins a finding to a source position
// (when the artifact came from a .rel file), names the node or edge it is
// about, carries a stable relvetNNN code, and — for adequacy findings —
// the violated typing rule of Figure 6.
package diag

import (
	"fmt"
	"sort"
	"strings"
)

// A Pos is a position in a .rel source file. The zero value means the
// artifact was built programmatically and has no source position.
type Pos struct {
	File string
	Line int // 1-based
	Col  int // 1-based
}

// IsValid reports whether the position carries line information.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String renders "file:line:col", omitting missing parts.
func (p Pos) String() string {
	if !p.IsValid() {
		if p.File != "" {
			return p.File
		}
		return "-"
	}
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Severity ranks diagnostics. Errors reject the artifact (inadequate
// decompositions, unplannable operations); warnings flag smells that are
// representable but wasteful; infos are advisory.
type Severity uint8

// The severity levels, most severe first.
const (
	Error Severity = iota
	Warning
	Info
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	case Info:
		return "info"
	default:
		return fmt.Sprintf("severity(%d)", s)
	}
}

// A Code is a stable diagnostic identifier, e.g. "relvet001". Codes are
// catalogued in internal/lint (decomposition plane, relvet0xx) and
// internal/vet (Go plane, relvet1xx).
type Code string

// A Diagnostic is one positioned finding.
type Diagnostic struct {
	Pos      Pos
	Code     Code
	Severity Severity
	// Node names the artifact element the finding is about: a let-bound
	// variable, an edge ("x→y"), a relation, or an operation signature.
	Node string
	// Rule names the violated judgment clause for adequacy findings
	// (AUNIT, AMAP-FD, AMAP-SHARE, AJOIN, ALET-COVER, AVAR, SCOPE).
	// Empty for ordinary lints.
	Rule    string
	Message string
}

// String renders "pos: severity: code[rule]: message [node]". Position and
// rule are omitted when absent.
func (d Diagnostic) String() string {
	var sb strings.Builder
	if d.Pos.IsValid() || d.Pos.File != "" {
		sb.WriteString(d.Pos.String())
		sb.WriteString(": ")
	}
	sb.WriteString(d.Severity.String())
	sb.WriteString(": ")
	sb.WriteString(string(d.Code))
	if d.Rule != "" {
		sb.WriteString("[" + d.Rule + "]")
	}
	sb.WriteString(": ")
	sb.WriteString(d.Message)
	return sb.String()
}

// Errorf builds an error-severity diagnostic.
func Errorf(pos Pos, code Code, node, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: pos, Code: code, Severity: Error, Node: node, Message: fmt.Sprintf(format, args...)}
}

// Sort orders diagnostics for stable output: by file, position, severity,
// then code and message.
func Sort(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
}

// Filter returns the diagnostics whose codes are not in the suppressed
// set. Suppression is per-code: the strings are codes like "relvet006".
func Filter(ds []Diagnostic, suppress []string) []Diagnostic {
	if len(suppress) == 0 {
		return ds
	}
	drop := make(map[Code]bool, len(suppress))
	for _, s := range suppress {
		drop[Code(strings.TrimSpace(s))] = true
	}
	out := ds[:0:0]
	for _, d := range ds {
		if !drop[d.Code] {
			out = append(out, d)
		}
	}
	return out
}

// A DiagError wraps a diagnostic as an ordinary error, letting existing
// error-returning APIs (CheckAdequate, the parser) surface structured
// findings without changing their signatures. errors.As recovers the
// diagnostic.
type DiagError struct {
	Diag Diagnostic
}

// Error renders the diagnostic without its severity prefix, matching the
// historical error style of CheckAdequate ("decomp: ...").
func (e *DiagError) Error() string {
	msg := e.Diag.Message
	if e.Diag.Pos.IsValid() {
		return e.Diag.Pos.String() + ": " + msg
	}
	return msg
}
