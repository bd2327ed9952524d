package ztopo

import "repro/internal/core"

// Relation exposes the underlying relation to the tests.
func (x *SynthTileIndex) Relation() *core.Relation { return x.rel }

// CachedBytes reports the bytes accounted in memory and on disk.
func (v *Viewer) CachedBytes() (mem, disk int64) { return v.memBytes, v.dskBytes }
