package instance_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dsl"
)

// TestNodeShapes checks, for every variable of every decomposition in
// spec/*.rel, that a node is one object of exactly the size its counts call
// for — a 16-byte header, 8 bytes per unit word, 16 per container, rounded
// up to the shape's alignment — and that the offsets the reflect-built
// shape gives its word and container arrays are the ones Words and Map
// address.
func TestNodeShapes(t *testing.T) {
	files, err := filepath.Glob("../../spec/*.rel")
	if err != nil {
		t.Fatal(err)
	}
	var covered []string
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		f, err := dsl.ParseFile(filepath.Base(file), string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range f.Decomps {
			covered = append(covered, nd.Name)
			r, err := core.New(nd.For, nd.D)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range r.Instance().NodeShapes() {
				if s.HeaderSize != 16 || s.HeaderAt != 0 {
					t.Fatalf("node header is %d bytes at offset %d, want 16 at 0", s.HeaderSize, s.HeaderAt)
				}
				want := 16 + 8*uintptr(s.Words) + 16*uintptr(s.Maps)
				want = (want + s.Align - 1) / s.Align * s.Align
				if s.Size != want {
					t.Errorf("%s/%s: %d words and %d maps in a %d-byte node, want %d", nd.Name, s.Var, s.Words, s.Maps, s.Size, want)
				}
				var wantWords, wantMaps uintptr
				if s.Words > 0 {
					wantWords = 16
				}
				if s.Maps > 0 {
					wantMaps = 16 + 8*uintptr(s.Words)
				}
				if s.TypeWords != wantWords || s.NodeWords != wantWords {
					t.Errorf("%s/%s: unit words at %d in the shape and %d through the node, want %d", nd.Name, s.Var, s.TypeWords, s.NodeWords, wantWords)
				}
				if s.TypeMaps != wantMaps || s.NodeMaps != wantMaps {
					t.Errorf("%s/%s: containers at %d in the shape and %d through the node, want %d", nd.Name, s.Var, s.TypeMaps, s.NodeMaps, wantMaps)
				}
			}
		}
	}
	for _, name := range []string{"flows", "processes", "graphedges"} {
		if !slices.Contains(covered, name) {
			t.Errorf("decomposition %s not in spec/*.rel", name)
		}
	}
}
