package instance

// Multi-version concurrency support. A versioned instance is an immutable
// published snapshot: the engine tiers point readers at it through an
// atomic pointer and never mutate it again. Writers fork the next version
// with BeginVersion and run the ordinary two-phase mutations on the fork;
// with cow set, each apply phase first clones the spine of nodes it would
// write (cowSpine), mutates only the clones, and leaves the predecessor's
// node graph bit-for-bit intact. Publishing is the engine's atomic store;
// dropping a failed fork is garbage collection. Unreferenced versions and
// the nodes only they reach are reclaimed by the Go GC — there is no epoch
// tracking or reader registration, which is what lets a streaming query
// callback mutate the relation it is iterating without deadlock.

// BeginVersion forks an unpublished successor version of the instance. The
// fork is a new header — root, count, view, version stamp and flags — over
// the same lineage: the layouts, the dictionary and the per-mutation scratch
// buffers are shared by pointer, not copied (writers are serialized by the
// engine, and a published predecessor never mutates again, so sharing the
// scratch is safe). The fork shares the entire node graph too; its
// mutations run copy-on-write. The fork's view starts at the whole
// dictionary — what the predecessor saw plus whatever an abandoned fork
// interned since — and follows the fork's own interning; the predecessor's
// view, like everything else readers of it touch, never moves again.
//
//relvet:role=fork
func (in *Instance) BeginVersion() *Instance {
	c := *in
	c.cow = true
	c.ver = in.ver + 1
	c.view = in.dict.View()
	return &c
}

// Version returns the instance's version number: 0 for a never-forked
// instance, and the fork count along the lineage otherwise.
func (in *Instance) Version() uint64 { return in.ver }

// COW reports whether the instance mutates copy-on-write — true on forks
// made by BeginVersion, false on directly-mutated instances.
func (in *Instance) COW() bool { return in.cow }

// cowNode clones one node into a new object of its variable's shape: the
// unit words are copied with it — the clone's are about to be written, the
// original's belong to a published version — maps are forked with Clone
// (shared substructure, copied lazily on write), and the clone is stamped
// with the mutating version's epoch.
//
//relvet:role=clone
func (in *Instance) cowNode(n *Node) *Node {
	c := in.allocNode(int(n.vi))
	c.refs = n.refs
	copy(c.words(), n.words())
	cm := c.maps()
	for i, m := range n.maps() {
		cm[i] = m.Clone()
	}
	if in.met != nil {
		in.met.CowNodeClones.Add(1)
		in.met.CowMapClones.Add(uint64(n.nm))
	}
	return c
}

// cowSpine runs at the head of every apply phase of a cow instance: it
// replaces each located, still-shared node of the mutation plan (the
// "spine" — root first, so parents are cloned before their children) with
// a private clone and redirects every in-edge entry of already-cloned
// parents from the shared node to the clone. The encoded tuple driving the
// mutation (scr.codes) binds every map-edge key on the spine, which is what
// lets the redirect find the parent entries without a scan, and the entries
// the plan's walk already found answer from its memo (child). After cowSpine
// the plan's walk indices resolve to the clones, so the apply writes touch
// no node the predecessor version can reach.
//
//relvet:role=clone
func (in *Instance) cowSpine() error {
	scr := &in.scr
	for i := range scr.nodes {
		n := scr.nodes[i]
		if n == nil || scr.fresh[i] || n.epoch == in.ver {
			continue // unlocated, allocated by this plan, or already private
		}
		if in.fi != nil {
			if ferr := in.fi.Point("instance.cow.clone", true); ferr != nil {
				return in.abort(ferr)
			}
		}
		c := in.cowNode(n)
		scr.nodes[i] = c
		if i == 0 {
			in.root = c
			continue
		}
		for _, k := range in.updWalk[i].in {
			ue := &in.linkEdges[k]
			pn := scr.nodes[ue.parent]
			if pn == nil || in.child(k) != n {
				continue
			}
			if in.fi != nil {
				if ferr := in.fi.Point("instance.cow.link", true); ferr != nil {
					return in.abort(ferr)
				}
			}
			pn.Map(ue.slot).Put(in.view, scr.keyAt(ue.keyPos), c)
			scr.edges[k] = c
		}
	}
	return nil
}
