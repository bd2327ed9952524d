package vet_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestEveryExportHasACaller holds the module to the rule that every
// exported name has a caller. An exported package-level name or method
// of a hand-written package other than main is dead unless non-test code
// somewhere uses it, or a _test.go file of another package does (Go has
// no other place for a test helper two packages share). Methods an
// interface names are exempt: their callers go through the interface.
//
// The load runs from the bench/ module over repro/... and bench itself,
// so what the frozen benchmark uses counts as called. go list only reads
// there; the test variants it compiles land in the build cache.
func TestEveryExportHasACaller(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := analysis.Load(filepath.Join(root, "bench"), "-test", "repro/...", ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deadExports(pkgs) {
		rel, err := filepath.Rel(root, d.pos.Filename)
		if err != nil {
			rel = d.pos.Filename
		}
		t.Errorf("%s:%d: %s has no caller outside its own package's tests", rel, d.pos.Line, d.name)
	}
}

// TestDeadExportClassifier runs the rule over the fixture packages in
// testdata/exports: lib declares one export per case, other's test and
// the second module (standing in for bench/) use some of them. The
// flagged set must be exactly the names marked `// want dead`.
func TestDeadExportClassifier(t *testing.T) {
	dir, err := filepath.Abs("testdata/exports/second")
	if err != nil {
		t.Fatal(err)
	}
	fixtures := "repro/internal/vet/testdata/exports/"
	pkgs, err := analysis.Load(dir, "-test", fixtures+"lib", fixtures+"other", ".")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, p := range pkgs {
		if p.ImportPath != fixtures+"lib" {
			continue
		}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if c.Text == "// want dead" {
						want[fmt.Sprint(p.Fset.Position(c.Pos()).Line)] = true
					}
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture has no want markers")
	}
	got := map[string]bool{}
	for _, d := range deadExports(pkgs) {
		if filepath.Base(d.pos.Filename) != "lib.go" {
			t.Errorf("%s: %s flagged outside lib.go", d.pos, d.name)
			continue
		}
		got[fmt.Sprint(d.pos.Line)] = true
		if !want[fmt.Sprint(d.pos.Line)] {
			t.Errorf("%s: %s flagged, want it live", d.pos, d.name)
		}
	}
	for line := range want {
		if !got[line] {
			t.Errorf("lib.go:%s: want a dead export, got none", line)
		}
	}
}

// A deadExport is one exported name the rule found no caller for.
type deadExport struct {
	name string // package path, receiver type and name, joined by dots
	pos  token.Position
}

// deadExports applies the rule to a -test load: pkgs holds each package
// once as itself and, if it has tests, again as its test variant and its
// external test package.
func deadExports(pkgs []*analysis.Package) []deadExport {
	type decl struct {
		pos        token.Position
		start, end int // a function's byte offsets: its calls to itself do not count
	}
	decls := map[string]*decl{}
	// ifaces maps a method name to the method sets of the interfaces that
	// name it. errors calls Unwrap, Is and As through interfaces declared
	// inside its functions, out of the loader's sight.
	ifaces := map[string][][]string{"Unwrap": {{"Unwrap"}}, "Is": {{"Is"}}, "As": {{"As"}}}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		var ms []string
		for i := 0; i < it.NumMethods(); i++ {
			ms = append(ms, it.Method(i).Name())
		}
		for _, m := range ms {
			ifaces[m] = append(ifaces[m], ms)
		}
	}
	// carriers maps a method to the method sets of the types that carry
	// it, declared or promoted through an embedded field.
	carriers := map[string][][]string{}
	seen := map[*types.Package]bool{}
	var scan func(*types.Package, bool)
	scan = func(p *types.Package, loaded bool) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			addIface(tn.Type())
			if _, ok := tn.Type().(*types.Named); !ok || !loaded || types.IsInterface(tn.Type()) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			var names []string
			for i := 0; i < ms.Len(); i++ {
				names = append(names, ms.At(i).Obj().Name())
			}
			for i := 0; i < ms.Len(); i++ {
				key := objKey(ms.At(i).Obj())
				carriers[key] = append(carriers[key], names)
			}
		}
		for _, q := range p.Imports() {
			scan(q, false)
		}
	}
	addIface(types.Universe.Lookup("error").Type())

	for _, p := range pkgs {
		scan(p.Types, true)
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		if p.Types.Name() == "main" {
			continue
		}
		for _, f := range p.Files {
			if isTest(p.Fset.File(f.Pos()).Name()) || ast.IsGenerated(f) {
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() {
						decls[objKey(p.Info.Defs[d.Name])] = &decl{
							pos:   p.Fset.Position(d.Name.Pos()),
							start: p.Fset.Position(d.Pos()).Offset,
							end:   p.Fset.Position(d.End()).Offset,
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, id := range names {
							if id.IsExported() {
								decls[objKey(p.Info.Defs[id])] = &decl{pos: p.Fset.Position(id.Pos())}
							}
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, p := range pkgs {
		own := strings.TrimSuffix(basePath(p.ImportPath), "_test")
		for id, obj := range p.Info.Uses {
			key := objKey(obj)
			dc := decls[key]
			if dc == nil || used[key] {
				continue
			}
			pos := p.Fset.Position(id.Pos())
			if pos.Filename == dc.pos.Filename && pos.Offset >= dc.start && pos.Offset < dc.end {
				continue
			}
			if !isTest(pos.Filename) || basePath(obj.Pkg().Path()) != own {
				used[key] = true
			}
		}
	}

	var dead []deadExport
	for key, dc := range decls {
		if !used[key] && !namedByInterface(key, carriers[key], ifaces) {
			dead = append(dead, deadExport{name: key, pos: dc.pos})
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return dead
}

// namedByInterface reports whether an interface names the method key:
// some interface with a method of that name has all its methods among
// those of a type carrying the method, which may be called through it.
func namedByInterface(key string, carriers [][]string, ifaces map[string][][]string) bool {
	name := key[strings.LastIndexByte(key, '.')+1:]
	for _, names := range carriers {
		has := map[string]bool{}
		for _, m := range names {
			has[m] = true
		}
	next:
		for _, ms := range ifaces[name] {
			for _, m := range ms {
				if !has[m] {
					continue next
				}
			}
			return true
		}
	}
	return false
}

// objKey names a package-level object or method the same way however it
// was loaded: from source, from export data, or inside a test variant.
// It is "" for anything else (locals, fields, parameters).
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := basePath(obj.Pkg().Path())
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := recvNamed(fn); recv != nil {
			return path + "." + recv.Obj().Name() + "." + fn.Name()
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			return "" // an interface's own method
		}
		return path + "." + fn.Name()
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return path + "." + obj.Name()
}

// recvNamed is the named type a method is declared on, nil for a
// function or an interface method.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || types.IsInterface(n) {
		return nil
	}
	return n.Origin()
}

// basePath drops the " [p.test]" go list appends to a test variant.
func basePath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

func isTest(filename string) bool { return strings.HasSuffix(filename, "_test.go") }
