package vet_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/diag"
	"repro/internal/vet"
)

// TestEngineCorpus drives each 2xx analyzer over its fixture package:
// triggers must fire on the `// want relvet2NN` lines, near-misses must
// stay silent. `make ci-race` re-runs this gate under -race.
func TestEngineCorpus(t *testing.T) {
	cases := []struct {
		dir string
		an  *analysis.Analyzer
	}{
		{"relvet200", vet.RoleAnnotation},
		{"relvet201", vet.CowWrite},
		{"relvet202", vet.LockFreeRead},
		{"relvet203", vet.WalOrder},
		{"relvet204", vet.AtomicPublish},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			runCorpus(t, c.dir, c.an)
		})
	}
}

// TestEngineCatalogue checks the 2xx catalogue is complete and agrees
// with the analyzers.
func TestEngineCatalogue(t *testing.T) {
	infos := vet.EngineCodes()
	if len(infos) != 5 {
		t.Fatalf("engine catalogue has %d codes, want 5 (relvet200–204)", len(infos))
	}
	sev := map[diag.Code]diag.Severity{}
	for _, i := range infos {
		if i.Summary == "" || i.Grounding == "" {
			t.Errorf("code %s lacks summary or grounding", i.Code)
		}
		sev[i.Code] = i.Severity
	}
	for _, a := range vet.EngineAnalyzers() {
		s, ok := sev[a.Code]
		if !ok {
			t.Errorf("analyzer %s has uncatalogued code %s", a.Name, a.Code)
		} else if s != a.Severity {
			t.Errorf("analyzer %s severity %v != catalogue %v", a.Name, a.Severity, s)
		}
	}
}

// TestEngineCleanOnModule runs the full 2xx plane over the engine
// packages — the same gate as `make lint-engine` — and requires zero
// findings. Any true positive must be fixed or carry a documented
// //relvet:role exemption, never an ignore.
func TestEngineCleanOnModule(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := analysis.Load(root, vet.EnginePackages()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(vet.EnginePackages()) {
		t.Fatalf("loaded %d packages, want %d", len(pkgs), len(vet.EnginePackages()))
	}
	for _, d := range analysis.Run(pkgs, vet.EngineAnalyzers()) {
		t.Errorf("%s:%d:%d: %s %s", d.Pos.File, d.Pos.Line, d.Pos.Col, d.Code, d.Message)
	}
}

// TestNoStandingSuppressions asserts the module carries zero
// //relvet:ignore markers outside testdata — the Makefile's
// "analyzer-clean, no standing suppressions" claim, enforced. The
// marker exists for client code; the engine and its tools must instead
// fix findings or annotate a sanctioned role.
func TestNoStandingSuppressions(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", ".git", "bin":
				return filepath.SkipDir
			}
			// bench/out is git-ignored output: the parent trees that
			// make bench-pairs exports and the Go build cache. The
			// verdict is about the checkout, not whatever an old run
			// left there.
			if path == filepath.Join(root, "bench", "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			return perr
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//relvet:ignore")
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := fset.Position(c.Pos())
				t.Errorf("%s:%d: standing //relvet:ignore suppression in non-testdata source", pos.Filename, pos.Line)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
