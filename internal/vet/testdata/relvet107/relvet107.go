// Package relvet107 is the unsynceddurable corpus.
package relvet107

import (
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/durable"
	"repro/internal/relation"
	"repro/internal/wal"
)

func trigger(dir string, spec *core.Spec, dc *decomp.Decomp, tup relation.Tuple) error {
	d, err := durable.Open(dir, spec, dc, durable.Options{Create: true, Policy: wal.SyncInterval}) // want relvet107
	if err != nil {
		return err
	}
	return d.Insert(tup)
}

func triggerWrapped(s *core.SyncRelation, l *wal.Log, a, b relation.Tuple) error {
	d, err := core.NewDurable(s, []*wal.Log{l}) // want relvet107
	if err != nil {
		return err
	}
	if err := d.Insert(a); err != nil {
		return err
	}
	_, err = d.Remove(b)
	return err
}

func triggerBatch(dir string, spec *core.Spec, dc *decomp.Decomp, ts []relation.Tuple) error {
	d, err := durable.Open(dir, spec, dc, durable.Options{Create: true}) // want relvet107
	if err != nil {
		return err
	}
	return d.InsertBatch(ts)
}

func nearMissDeferredClose(dir string, spec *core.Spec, dc *decomp.Decomp, tup relation.Tuple) error {
	d, err := durable.Open(dir, spec, dc, durable.Options{Create: true})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := d.Close(); cerr != nil {
			panic(cerr)
		}
	}()
	return d.Insert(tup)
}

func nearMissSync(s *core.SyncRelation, l *wal.Log, tup relation.Tuple) error {
	d, err := core.NewDurable(s, []*wal.Log{l})
	if err != nil {
		return err
	}
	if err := d.Insert(tup); err != nil {
		return err
	}
	return d.Sync()
}

func nearMissCheckpoint(dir string, spec *core.Spec, dc *decomp.Decomp, tup relation.Tuple) error {
	d, err := durable.Open(dir, spec, dc, durable.Options{Create: true})
	if err != nil {
		return err
	}
	if ierr := d.Insert(tup); ierr != nil {
		return ierr
	}
	return d.Checkpoint()
}

// settle drains buffered appends to disk on behalf of its caller.
func settle(d *core.DurableRelation) error { return d.Checkpoint() }

func nearMissCheckpointHelper(dir string, spec *core.Spec, dc *decomp.Decomp, tup relation.Tuple) error {
	// The durability call is hidden behind a helper: passing the handle
	// to settle ends the intraprocedural flow (the handle escapes), so
	// the analyzer deliberately trusts the callee.
	d, err := durable.Open(dir, spec, dc, durable.Options{Create: true})
	if err != nil {
		return err
	}
	if ierr := d.Insert(tup); ierr != nil {
		return ierr
	}
	return settle(d)
}

func nearMissEscapesReturn(dir string, spec *core.Spec, dc *decomp.Decomp, tup relation.Tuple) (*core.DurableRelation, error) {
	// The caller receives the handle and owns its lifecycle.
	d, err := durable.Open(dir, spec, dc, durable.Options{Create: true})
	if err != nil {
		return nil, err
	}
	if ierr := d.Insert(tup); ierr != nil {
		return nil, ierr
	}
	return d, nil
}

func nearMissEscapesArg(dir string, spec *core.Spec, dc *decomp.Decomp, tup relation.Tuple, hand func(*core.DurableRelation)) error {
	d, err := durable.Open(dir, spec, dc, durable.Options{Create: true})
	if err != nil {
		return err
	}
	if ierr := d.Insert(tup); ierr != nil {
		return ierr
	}
	hand(d)
	return nil
}

func nearMissParameter(d *core.DurableRelation, tup relation.Tuple) error {
	// Not opened here: whoever opened it closes it.
	return d.Insert(tup)
}

func nearMissQueryOnly(dir string, spec *core.Spec, dc *decomp.Decomp, tup relation.Tuple) (int, error) {
	// Read-only use buffers nothing; abandoning the handle loses no data.
	d, err := durable.Open(dir, spec, dc, durable.Options{})
	if err != nil {
		return 0, err
	}
	ts, qerr := d.Query(tup, nil)
	return len(ts), qerr
}
