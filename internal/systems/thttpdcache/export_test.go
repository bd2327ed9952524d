package thttpdcache

import "repro/internal/core"

// Relation exposes the underlying relation to the tests.
func (c *SynthCache) Relation() *core.Relation { return c.rel }
