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
