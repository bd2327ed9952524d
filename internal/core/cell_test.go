package core

import (
	"testing"
	"unsafe"
)

// TestCellIsOneCacheLine: a sharded engine holds its cells in one array, and
// every writer takes its own cell's mutex and publishes through its own
// pointer. The padding keeps each cell on a 64-byte line of its own, so
// writers on neighbouring shards do not bounce one line between cores.
func TestCellIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got != 64 {
		t.Fatalf("cell is %d bytes, want 64: resize its padding", got)
	}
}

// TestRelationFitsItsSizeClass: every write on an MVCC tier forks a
// Relation header (beginVersion copies it), so what all versions share —
// the plan cache and the FDs writes check by query among it — stays behind
// its pointers. 72 bytes allocate from the 80-byte size class.
func TestRelationFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Relation{}); got > 80 {
		t.Fatalf("Relation is %d bytes, want at most 80: keep shared state behind a pointer", got)
	}
}
