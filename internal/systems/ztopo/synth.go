package ztopo

import (
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/relation"
)

// SynthTileIndex is the synthesized index: the relation maintains the
// by-tile and by-state views together, so the invariant the hand-coded
// version asserts dynamically holds by construction (Theorem 5).
type SynthTileIndex struct {
	rel *core.Relation
}

// NewSynthTileIndex builds a tile index over the given decomposition
// (DefaultTileDecomp for the original-equivalent layout).
func NewSynthTileIndex(d *decomp.Decomp) (*SynthTileIndex, error) {
	rel, err := core.New(TileSpec(), d)
	if err != nil {
		return nil, err
	}
	return &SynthTileIndex{rel: rel}, nil
}

func tilePattern(id int64) relation.Tuple {
	return relation.NewTuple(relation.BindInt("tile", id))
}

func metaTuple(m TileMeta) relation.Tuple {
	return relation.NewTuple(
		relation.BindInt("tile", m.ID),
		relation.BindInt("state", m.State),
		relation.BindInt("size", m.Size),
		relation.BindInt("lastuse", m.LastUse),
	)
}

// Lookup returns a tile's metadata.
func (x *SynthTileIndex) Lookup(id int64) (TileMeta, bool) {
	var meta TileMeta
	found := false
	_ = x.rel.QueryFunc(tilePattern(id), []string{"state", "size", "lastuse"},
		func(got relation.Tuple) bool {
			meta = TileMeta{
				ID:      id,
				State:   got.MustGet("state").Int(),
				Size:    got.MustGet("size").Int(),
				LastUse: got.MustGet("lastuse").Int(),
			}
			found = true
			return false
		})
	return meta, found
}

// Upsert inserts or replaces a tile's metadata. Only the changed columns
// are passed to the relational update, so an LRU touch stays on the
// in-place path while a state change re-homes the tile across the
// per-state lists automatically.
func (x *SynthTileIndex) Upsert(meta TileMeta) error {
	old, ok := x.Lookup(meta.ID)
	if !ok {
		return x.rel.Insert(metaTuple(meta))
	}
	var bs []relation.Binding
	if old.State != meta.State {
		bs = append(bs, relation.BindInt("state", meta.State))
	}
	if old.Size != meta.Size {
		bs = append(bs, relation.BindInt("size", meta.Size))
	}
	if old.LastUse != meta.LastUse {
		bs = append(bs, relation.BindInt("lastuse", meta.LastUse))
	}
	if len(bs) == 0 {
		return nil
	}
	_, err := x.rel.Update(tilePattern(meta.ID), relation.NewTuple(bs...))
	return err
}

// Remove drops a tile.
func (x *SynthTileIndex) Remove(id int64) (bool, error) {
	n, err := x.rel.Remove(tilePattern(id))
	return n > 0, err
}

// EachInState visits the tiles in one state.
func (x *SynthTileIndex) EachInState(state int64, f func(TileMeta) bool) error {
	return x.rel.QueryFunc(
		relation.NewTuple(relation.BindInt("state", state)),
		[]string{"tile", "size", "lastuse"},
		func(got relation.Tuple) bool {
			return f(TileMeta{
				ID:      got.MustGet("tile").Int(),
				State:   state,
				Size:    got.MustGet("size").Int(),
				LastUse: got.MustGet("lastuse").Int(),
			})
		})
}

// Len returns the number of cached tiles.
func (x *SynthTileIndex) Len() int { return x.rel.Len() }
