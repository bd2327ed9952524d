package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// A Package is one loaded, parsed, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
}

// Load lists the packages matching patterns, parses their sources, and
// type-checks them offline. Instead of depending on go/packages, it asks
// `go list -deps -export` for the transitive dependency set together with
// each dependency's compiled export data from the build cache, then feeds
// those files to the gc importer — no network, no module downloads, no
// x/tools.
//
// Patterns follow `go list` syntax (./..., repro/internal/core, an
// explicit ./testdata/... directory). Wildcards skip testdata directories
// exactly as the go tool does; name testdata packages explicitly to load
// them. A leading -test is handed to go list too: each matched package
// with tests then also loads as its test variant (its _test.go files
// beside its own) and as its external _test package, each importing
// through go list's ImportMap.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,ImportMap",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := map[string]string{}
	var targets []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if !e.DepOnly && !e.Standard {
			targets = append(targets, e)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		conf := types.Config{Importer: imp}
		if t.ImportMap != nil {
			conf.Importer = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
				if p, ok := t.ImportMap[path]; ok {
					path = p
				}
				return lookup(path)
			})
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			if !filepath.IsAbs(name) { // a test main lives in the build cache
				name = filepath.Join(t.Dir, name)
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Dir:        t.Dir,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		})
	}
	return pkgs, nil
}

// CheckSource type-checks a single in-memory Go file against the export
// data reachable from dir (its imports must be importable from there).
// cmd/relvet uses it to analyse codegen output without writing the
// generated package to disk: the file is parsed under the given name,
// checked, and run through the analyzers via a synthetic Package.
func CheckSource(dir, name string, src []byte, deps ...string) (*Package, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly",
	}, deps...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", deps, err, stderr.Bytes())
	}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %v", name, err)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		ef, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(ef)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	tpkg, err := conf.Check(f.Name.Name, fset, []*ast.File{f}, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", name, err)
	}
	return &Package{
		ImportPath: f.Name.Name,
		Dir:        dir,
		Fset:       fset,
		Files:      []*ast.File{f},
		Types:      tpkg,
		Info:       info,
	}, nil
}
