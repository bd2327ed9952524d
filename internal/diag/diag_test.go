package diag_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/diag"
)

func TestPosString(t *testing.T) {
	cases := []struct {
		pos  diag.Pos
		want string
	}{
		{diag.Pos{}, "-"},
		{diag.Pos{File: "a.rel"}, "a.rel"},
		{diag.Pos{Line: 3, Col: 7}, "3:7"},
		{diag.Pos{File: "a.rel", Line: 3, Col: 7}, "a.rel:3:7"},
	}
	for _, c := range cases {
		if got := c.pos.String(); got != c.want {
			t.Errorf("Pos%+v.String() = %q, want %q", c.pos, got, c.want)
		}
	}
	if (diag.Pos{File: "a.rel"}).IsValid() {
		t.Errorf("file-only position reported valid")
	}
	if !(diag.Pos{Line: 1, Col: 1}).IsValid() {
		t.Errorf("1:1 position reported invalid")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := diag.Errorf(diag.Pos{File: "s.rel", Line: 4, Col: 2}, "relvet001", "x",
		"edge %q→%q: FDs do not imply {a} → {b}", "x", "y")
	d.Rule = "AMAP-FD"
	got := d.String()
	for _, frag := range []string{"s.rel:4:2", "error", "relvet001[AMAP-FD]", `edge "x"→"y"`} {
		if !strings.Contains(got, frag) {
			t.Errorf("String() = %q, missing %q", got, frag)
		}
	}
	// Positionless warnings omit the position prefix entirely.
	w := diag.Diagnostic{Code: "relvet006", Severity: diag.Warning, Node: "x", Message: "shadow join"}
	if got := w.String(); !strings.HasPrefix(got, "warning: relvet006") {
		t.Errorf("positionless String() = %q", got)
	}
}

func TestSortAndHasErrors(t *testing.T) {
	ds := []diag.Diagnostic{
		{Pos: diag.Pos{File: "b.rel", Line: 1, Col: 1}, Code: "relvet006", Severity: diag.Warning, Message: "w"},
		diag.Errorf(diag.Pos{File: "a.rel", Line: 9, Col: 1}, "relvet001", "", "e"),
		{Pos: diag.Pos{File: "a.rel", Line: 2, Col: 5}, Code: "relvet004", Severity: diag.Warning, Message: "w"},
		diag.Errorf(diag.Pos{File: "a.rel", Line: 2, Col: 5}, "relvet003", "", "e"),
	}
	diag.Sort(ds)
	order := make([]string, len(ds))
	for i, d := range ds {
		order[i] = d.Pos.String() + "/" + string(d.Code)
	}
	want := []string{"a.rel:2:5/relvet003", "a.rel:2:5/relvet004", "a.rel:9:1/relvet001", "b.rel:1:1/relvet006"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sort order = %v, want %v", order, want)
		}
	}
}

func TestFilter(t *testing.T) {
	ds := []diag.Diagnostic{
		{Code: "relvet003"},
		{Code: "relvet006"},
		{Code: "relvet007"},
	}
	out := diag.Filter(ds, []string{"relvet006", " relvet007 "})
	if len(out) != 1 || out[0].Code != "relvet003" {
		t.Errorf("Filter = %v", out)
	}
	if got := diag.Filter(ds, nil); len(got) != 3 {
		t.Errorf("nil suppression filtered diagnostics: %v", got)
	}
}

func TestErrorWrapping(t *testing.T) {
	d := diag.Errorf(diag.Pos{File: "s.rel", Line: 2, Col: 3}, "relvet001", "w", "decomp: %q declares cover {a} but its definition covers {b}", "w")
	err := error(&diag.DiagError{Diag: d})
	if !strings.Contains(err.Error(), "s.rel:2:3") || !strings.Contains(err.Error(), "declares cover") {
		t.Errorf("Error() = %q", err)
	}
	var de *diag.DiagError
	if !errors.As(err, &de) || de.Diag.Code != "relvet001" {
		t.Errorf("errors.As failed to recover the diagnostic")
	}
}
