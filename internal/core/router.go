package core

import (
	"fmt"

	"repro/internal/relation"
)

// router maps tuples and patterns to shards: a tuple or pattern that binds
// every shard-key column routes to exactly one shard (by hashing the key
// values, no allocation), anything else must fan out. It is immutable after
// construction and therefore shareable without locks. The nil router is
// the one-cell engine's: it routes everything to cell 0 without hashing.
type router struct {
	key    relation.Cols
	shards int
}

// route returns the shard index owning t's shard-key valuation, or ok=false
// when t does not bind the whole shard key (the operation must fan out).
func (ro *router) route(t relation.Tuple) (int, bool) {
	if ro == nil {
		return 0, true
	}
	h, ok := t.HashShard(ro.key)
	if !ok {
		return 0, false
	}
	return int(h % uint64(ro.shards)), true
}

// mustRoute is route for full tuples, which always bind the shard key once
// they have passed spec validation.
func (ro *router) mustRoute(t relation.Tuple) (int, error) {
	i, ok := ro.route(t)
	if !ok {
		return 0, fmt.Errorf("core: tuple %v does not bind the shard key %v", t, ro.key)
	}
	return i, nil
}
