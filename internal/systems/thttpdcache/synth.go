package thttpdcache

import (
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/relation"
)

// SynthCache is the synthesized mmap cache.
type SynthCache struct {
	rel *core.Relation
}

// NewSynthCache builds a cache over the given decomposition
// (DefaultMapDecomp for the tuned layout).
func NewSynthCache(d *decomp.Decomp) (*SynthCache, error) {
	rel, err := core.New(MapSpec(), d)
	if err != nil {
		return nil, err
	}
	return &SynthCache{rel: rel}, nil
}

// Lookup returns the cached mapping for a path.
func (c *SynthCache) Lookup(path string) (Mapping, bool) {
	var m Mapping
	found := false
	_ = c.rel.QueryFunc(
		relation.NewTuple(relation.BindString("path", path)),
		[]string{"handle", "size", "maptime"},
		func(got relation.Tuple) bool {
			m = Mapping{
				Path:    path,
				Handle:  got.MustGet("handle").Int(),
				Size:    got.MustGet("size").Int(),
				MapTime: got.MustGet("maptime").Int(),
			}
			found = true
			return false
		})
	return m, found
}

// Add caches a mapping; re-adding a path replaces its entry.
func (c *SynthCache) Add(m Mapping) error {
	pat := relation.NewTuple(relation.BindString("path", m.Path))
	if _, ok := c.Lookup(m.Path); ok {
		if _, err := c.rel.Remove(pat); err != nil {
			return err
		}
	}
	return c.rel.Insert(relation.NewTuple(
		relation.BindString("path", m.Path),
		relation.BindInt("handle", m.Handle),
		relation.BindInt("size", m.Size),
		relation.BindInt("maptime", m.MapTime),
	))
}

// ExpireOlderThan enumerates the cache and removes stale mappings. Queries
// are equality-based (§2), so the age filter runs in the client, exactly
// like the original's traversal.
func (c *SynthCache) ExpireOlderThan(cutoff int64) ([]Mapping, error) {
	var out []Mapping
	err := c.rel.QueryFunc(relation.NewTuple(),
		[]string{"path", "handle", "size", "maptime"},
		func(got relation.Tuple) bool {
			if mt := got.MustGet("maptime").Int(); mt < cutoff {
				out = append(out, Mapping{
					Path:    got.MustGet("path").Str(),
					Handle:  got.MustGet("handle").Int(),
					Size:    got.MustGet("size").Int(),
					MapTime: mt,
				})
			}
			return true
		})
	if err != nil {
		return nil, err
	}
	for _, m := range out {
		if _, err := c.rel.Remove(relation.NewTuple(relation.BindString("path", m.Path))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Len returns the number of cached mappings.
func (c *SynthCache) Len() int { return c.rel.Len() }
