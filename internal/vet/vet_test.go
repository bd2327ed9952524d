package vet_test

import (
	"regexp"
	"testing"

	"repro/internal/analysis"
	"repro/internal/diag"
	"repro/internal/vet"
)

var wantRe = regexp.MustCompile(`// want (relvet\d+)`)

// TestAnalyzersOnCorpus loads each fixture package and checks the
// analyzer flags exactly the lines annotated `// want relvetNNN` —
// triggers must fire, near-misses must stay silent.
func TestAnalyzersOnCorpus(t *testing.T) {
	cases := []struct {
		dir string
		an  *analysis.Analyzer
	}{
		{"relvet101", vet.UncheckedMut},
		{"relvet102", vet.SwallowedPoison},
		{"relvet103", vet.StaleResults},
		{"relvet104", vet.OptionsMisuse},
		{"relvet106", vet.StaleSnapshot},
		{"relvet107", vet.UnsyncedDurable},
		{"relvet108", vet.UnclosedFollower},
		{"relvet109", vet.EscapedRow},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			runCorpus(t, c.dir, c.an)
		})
	}
}

// runCorpus loads one fixture package and checks the analyzer flags
// exactly the `// want relvetNNN` lines; shared by the 1xx and the
// engine-plane (2xx) corpus tests.
func runCorpus(t *testing.T, dir string, an *analysis.Analyzer) {
	t.Helper()
	pkgs, err := analysis.Load(".", "./testdata/"+dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]

	want := map[int]diag.Code{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				m := wantRe.FindStringSubmatch(cm.Text)
				if m == nil {
					continue
				}
				want[pkg.Fset.Position(cm.Pos()).Line] = diag.Code(m[1])
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture has no want markers")
	}

	got := map[int]diag.Code{}
	for _, d := range analysis.Run(pkgs, []*analysis.Analyzer{an}) {
		if prev, dup := got[d.Pos.Line]; dup && prev != d.Code {
			t.Errorf("two codes on line %d", d.Pos.Line)
		}
		got[d.Pos.Line] = d.Code
	}
	for line, code := range want {
		if got[line] != code {
			t.Errorf("line %d: want %s, got %q", line, code, got[line])
		}
	}
	for line, code := range got {
		if _, ok := want[line]; !ok {
			t.Errorf("line %d: unexpected %s finding", line, code)
		}
	}
}

// TestCatalogue checks the Go-plane catalogue is complete and the
// analyzers agree with it.
func TestCatalogue(t *testing.T) {
	infos := vet.Codes()
	if len(infos) != 9 {
		t.Fatalf("catalogue has %d codes, want 9 (relvet101–109)", len(infos))
	}
	sev := map[diag.Code]diag.Severity{}
	for _, i := range infos {
		if i.Summary == "" || i.Grounding == "" {
			t.Errorf("code %s lacks summary or grounding", i.Code)
		}
		sev[i.Code] = i.Severity
	}
	for _, a := range vet.Analyzers() {
		s, ok := sev[a.Code]
		if !ok {
			t.Errorf("analyzer %s has uncatalogued code %s", a.Name, a.Code)
		} else if s != a.Severity {
			t.Errorf("analyzer %s severity %v != catalogue %v", a.Name, a.Severity, s)
		}
	}
}
