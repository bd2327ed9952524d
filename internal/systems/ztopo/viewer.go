package ztopo

import "fmt"

// A Viewer is ZTopo's tile lookup path: memory cache, then disk cache,
// then the network, with LRU demotion from memory to disk and LRU eviction
// from disk (the paper: "To minimize network traffic, the viewer maintains
// memory and disk caches of recently viewed map tiles").
type Viewer struct {
	Index TileIndex
	Store *TileStore

	MemBudget  int64 // bytes of tile data held in memory
	DiskBudget int64 // bytes of tile data held on disk

	clock    int64
	memory   map[int64][]byte // the in-memory tile bytes themselves
	memBytes int64
	dskBytes int64

	MemHits, DiskHits, NetworkFetches int
}

// NewViewer assembles a viewer over the given index and store.
func NewViewer(index TileIndex, store *TileStore, memBudget, diskBudget int64) *Viewer {
	return &Viewer{
		Index:      index,
		Store:      store,
		MemBudget:  memBudget,
		DiskBudget: diskBudget,
		memory:     make(map[int64][]byte),
	}
}

// Tile returns the bytes of a tile, consulting memory, then disk, then the
// network, and updating the cache.
func (v *Viewer) Tile(id int64) ([]byte, error) {
	v.clock++
	if meta, ok := v.Index.Lookup(id); ok {
		switch meta.State {
		case StateMemory:
			v.MemHits++
			meta.LastUse = v.clock
			if err := v.Index.Upsert(meta); err != nil {
				return nil, err
			}
			return v.memory[id], nil
		case StateDisk:
			v.DiskHits++
			data, err := v.Store.ReadDisk(id)
			if err != nil {
				return nil, err
			}
			v.dskBytes -= meta.Size
			if err := v.admit(TileMeta{ID: id, State: StateMemory, Size: int64(len(data)), LastUse: v.clock}, data); err != nil {
				return nil, err
			}
			return data, nil
		default:
			return nil, fmt.Errorf("ztopo: tile %d in unknown state %d", id, meta.State)
		}
	}
	v.NetworkFetches++
	data := v.Store.FetchNetwork(id)
	if err := v.admit(TileMeta{ID: id, State: StateMemory, Size: int64(len(data)), LastUse: v.clock}, data); err != nil {
		return nil, err
	}
	return data, nil
}

// admit places a tile in memory and enforces both budgets.
func (v *Viewer) admit(meta TileMeta, data []byte) error {
	v.memory[meta.ID] = data
	v.memBytes += meta.Size
	if err := v.Index.Upsert(meta); err != nil {
		return err
	}
	for v.memBytes > v.MemBudget {
		victim, ok := v.oldest(StateMemory)
		if !ok {
			break
		}
		// Demote to disk.
		v.Store.WriteDisk(victim.ID, v.memory[victim.ID])
		delete(v.memory, victim.ID)
		v.memBytes -= victim.Size
		v.dskBytes += victim.Size
		victim.State = StateDisk
		if err := v.Index.Upsert(victim); err != nil {
			return err
		}
	}
	for v.dskBytes > v.DiskBudget {
		victim, ok := v.oldest(StateDisk)
		if !ok {
			break
		}
		v.Store.DropDisk(victim.ID)
		v.dskBytes -= victim.Size
		if _, err := v.Index.Remove(victim.ID); err != nil {
			return err
		}
	}
	return nil
}

// oldest scans one state for its least recently used tile. Both index
// variants expose the per-state enumeration this needs; in the hand-coded
// version it is the reason the per-state lists exist at all.
func (v *Viewer) oldest(state int64) (TileMeta, bool) {
	var best TileMeta
	found := false
	_ = v.Index.EachInState(state, func(m TileMeta) bool {
		if !found || m.LastUse < best.LastUse {
			best, found = m, true
		}
		return true
	})
	return best, found
}
