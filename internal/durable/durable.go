// Package durable opens write-ahead-logged relations: it owns the
// on-disk directory layout (manifest, per-cell log and snapshot files),
// the crash-recovery protocol that rebuilds a relation from its latest
// checkpoint plus the log tail, and the validation that refuses to
// recover from a directory whose manifest disagrees with the requested
// specification.
//
// Layout. A durable relation lives in one directory:
//
//	<dir>/MANIFEST            identity: name, columns, tier, sharding
//	<dir>/wal.log             sync tier: the cell's write-ahead log
//	<dir>/snap-<seq>.snap     sync tier: checkpoints (highest seq wins)
//	<dir>/shard-NNN/...       sharded tier: one cell directory per shard
//
// Recovery. Open loads each cell's highest-numbered valid snapshot (if
// any) and replays it, then the log records it does not cover, through
// the engine's normal copy-on-write publish path (core.ReplayCell, cell by
// cell), all on one fork per cell: nothing can read the engine before Open
// returns, so the intermediate versions would have no observer, and a
// recovered cell is at version 1 however long its log was. The log is
// scanned in the same pass (wal.Scanner): each record is decoded and
// checked when the replay asks for it, a torn tail is discarded, and
// mid-log corruption ends the replay with an error wrapping wal.ErrCorrupt
// after the records before it were applied to the fork. Replaying through
// the COW path is a correctness property, not a convenience: a fault or
// corruption mid-replay drops an unpublished fork, so a failed recovery
// publishes nothing, writes nothing to the cell's directory, leaves no
// torn or poisoned state behind, and Open can simply be retried.
//
// The log records logical deltas (full tuples), so recovery is
// representation-independent: a directory written under one
// decomposition recovers under any other decomposition of the same
// relation.
package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Options configures Open.
type Options struct {
	// Create permits initializing an empty directory. Without it, Open
	// fails if dir holds no durable relation — the guard against typo'd
	// paths silently starting an empty database.
	Create bool

	// Policy is the WAL fsync policy (default wal.SyncAlways). Interval
	// is the group-commit tick under wal.SyncInterval (default
	// wal.DefaultInterval).
	Policy   wal.SyncPolicy
	Interval time.Duration

	// Shards > 0 with a ShardKey selects the sharded tier; Workers
	// configures it exactly like core.ShardOptions. Both unset
	// opens the single-cell sync tier; either without the other is an
	// error (the shard count is the directory's on-disk layout, so it has
	// no default).
	Shards   int
	ShardKey []string
	Workers  int

	// Metrics, when set, is attached to the engine and receives the WAL
	// and recovery counters (wal.appends, recovery.replays, ...).
	Metrics *obs.Metrics
}

// manifest is the durable relation's identity record, written once at
// creation and validated on every open. It pins the facts that must not
// drift underneath an existing log: the relation's name and columns
// (replay would misinterpret tuples), the tier, and the shard layout
// (tuples are partitioned on disk by the original shard key and count).
type manifest struct {
	Format   int      `json:"format"`
	Name     string   `json:"name"`
	Columns  []string `json:"columns"`
	Tier     string   `json:"tier"` // "sync" or "sharded"
	Shards   int      `json:"shards,omitempty"`
	ShardKey []string `json:"shard_key,omitempty"`
}

const (
	manifestName   = "MANIFEST"
	manifestFormat = 1
	logName        = "wal.log"
)

// ErrNoRelation is returned by Open without Options.Create when the
// directory holds no durable relation.
var ErrNoRelation = errors.New("durable: directory holds no durable relation")

func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, manifestName))
}

func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("durable: manifest in %s is not valid JSON: %w", dir, err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("durable: manifest in %s has format %d, this build reads %d", dir, m.Format, manifestFormat)
	}
	return &m, nil
}

// validate refuses to recover when the directory's identity disagrees
// with the caller's: a mismatch means the log's tuples would be
// reinterpreted under a different schema, which is silent corruption.
func (m *manifest) validate(spec *core.Spec, opts Options) error {
	if m.Name != spec.Name {
		return fmt.Errorf("durable: directory holds relation %q, caller opened %q", m.Name, spec.Name)
	}
	if want := spec.Signature(); !slices.Equal(m.Columns, want) {
		return fmt.Errorf("durable: directory columns %v != spec columns %v", m.Columns, want)
	}
	tier := "sync"
	if opts.Shards > 0 {
		tier = "sharded"
	}
	if m.Tier != tier {
		return fmt.Errorf("durable: directory holds a %s-tier relation, caller requested %s", m.Tier, tier)
	}
	if opts.Shards > 0 {
		if m.Shards != opts.Shards {
			return fmt.Errorf("durable: directory is sharded %d ways, caller requested %d", m.Shards, opts.Shards)
		}
		if !slices.Equal(m.ShardKey, opts.ShardKey) {
			return fmt.Errorf("durable: directory shard key %v != requested %v", m.ShardKey, opts.ShardKey)
		}
	}
	return nil
}

// Open opens (or with Options.Create, initializes) the durable relation
// in dir and recovers it to the state of the last acknowledged write:
// latest valid checkpoint plus WAL tail, replayed through the engine's
// copy-on-write publish path. Torn trailing log records — an append cut
// short by a crash — are detected by CRC and discarded, counted in
// Metrics.RecoveryDiscards; everything else that fails to verify fails
// Open loudly, returning a nil relation.
func Open(dir string, spec *core.Spec, d *decomp.Decomp, opts Options) (*core.DurableRelation, error) {
	if opts.Policy < wal.SyncAlways || opts.Policy > wal.SyncOff {
		return nil, fmt.Errorf("durable: unknown sync policy %d", opts.Policy)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// The shard count is part of the on-disk layout (one log directory per
	// shard), so unlike core.NewSharded there is no default to fall back on.
	if len(opts.ShardKey) > 0 && opts.Shards <= 0 {
		return nil, fmt.Errorf("durable: Options.ShardKey %v given without Options.Shards", opts.ShardKey)
	}
	// The empty MVCC engine recovery replays into, built first so that a
	// layout or decomposition it rejects never creates the directory.
	eng, err := core.NewEngine(spec, d, core.ShardOptions{
		ShardKey: opts.ShardKey,
		Shards:   opts.Shards,
		Workers:  opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	m, err := readManifest(dir)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if !opts.Create {
			return nil, fmt.Errorf("%w: %s (set Options.Create to initialize)", ErrNoRelation, dir)
		}
		m = &manifest{
			Format:  manifestFormat,
			Name:    spec.Name,
			Columns: spec.Signature(),
			Tier:    "sync",
		}
		if opts.Shards > 0 {
			m.Tier, m.Shards, m.ShardKey = "sharded", opts.Shards, opts.ShardKey
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := writeManifest(dir, *m); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	default:
		if err := m.validate(spec, opts); err != nil {
			return nil, err
		}
	}

	cfg := wal.Config{Policy: opts.Policy, Interval: opts.Interval, Metrics: opts.Metrics}
	logs := make([]*wal.Log, eng.NumCells())
	for i := range logs {
		// One directory per cell: dir itself for the sync tier's single
		// cell, dir/shard-NNN per shard.
		cellDir := dir
		if opts.Shards > 0 {
			cellDir = filepath.Join(dir, core.ShardDirName(i))
		}
		err := os.MkdirAll(cellDir, 0o755)
		if err == nil {
			logs[i], err = recoverCell(cellDir, cfg, opts.Metrics, func(src core.CommitSource) error {
				_, err := core.ReplayCell(eng, i, src)
				return err
			})
		}
		if err != nil {
			closeLogs(logs[:i])
			if opts.Shards > 0 {
				err = fmt.Errorf("shard %d: %w", i, err)
			}
			return nil, err
		}
	}
	if opts.Metrics != nil {
		eng.SetMetrics(opts.Metrics)
	}
	return core.NewDurable(eng, logs)
}

func closeLogs(logs []*wal.Log) {
	for _, l := range logs {
		if l != nil {
			l.Close()
		}
	}
}

// recoverCell rebuilds one cell: pick the highest valid snapshot, open a
// scanner on the log, hand the snapshot (as the delta that inserts its
// tuples) and then the log records it does not cover, decoded one at a time
// as the applier asks for them, to the supplied COW-path applier as one
// batch, and reopen the log for appending. Damage the scan reaches after
// some records were applied fails the applier's batch, which drops its
// unpublished fork. Returns the open log; any error leaves nothing to clean
// up (the log is the last thing opened).
func recoverCell(cellDir string, cfg wal.Config, met *obs.Metrics, apply func(core.CommitSource) error) (*wal.Log, error) {
	fi := faultinject.Active()
	logPath := filepath.Join(cellDir, logName)

	snapPath, snapSeq, hasSnap, err := latestSnapshot(cellDir)
	if err != nil {
		return nil, err
	}

	scanner, err := wal.NewScanner(logPath)
	switch {
	case errors.Is(err, os.ErrNotExist) || errors.Is(err, wal.ErrNoHeader):
		if hasSnap {
			// A checkpoint always rotates to a fresh log with a valid
			// header; a snapshot without one means the log was lost.
			return nil, fmt.Errorf("durable: %s has checkpoint %s but no usable log: %w", cellDir, filepath.Base(snapPath), err)
		}
		scanner = nil
	case err != nil:
		return nil, err
	default:
		if base := scanner.Scan().BaseSeq; hasSnap && base > snapSeq+1 {
			return nil, fmt.Errorf("durable: log %s starts at record %d but checkpoint covers only through %d: records lost", logPath, base, snapSeq)
		}
	}

	var snap wal.Commit
	if hasSnap {
		ts, seq, err := wal.ReadSnapshot(snapPath)
		if err != nil {
			return nil, err
		}
		if seq != snapSeq {
			return nil, fmt.Errorf("durable: snapshot %s declares sequence %d, name says %d", snapPath, seq, snapSeq)
		}
		snap = wal.Commit{Seq: seq, Inserted: ts}
	}

	// The batch is the snapshot, then the log records it does not cover (the
	// tail), with the recovery kill-point before every record.
	replays := 0
	err = apply(func() (c wal.Commit, ok bool, err error) {
		switch {
		case hasSnap:
			c, hasSnap = snap, false
			snap = wal.Commit{} // the batch is its last reference
		case scanner == nil:
			return c, false, nil
		default:
			for {
				if c, ok, err = scanner.Next(); err != nil || !ok {
					return c, false, err
				}
				if c.Seq > snapSeq {
					break
				}
			}
			replays++
		}
		if fi != nil {
			if err := fi.Point("recovery.apply", true); err != nil {
				return c, false, err
			}
		}
		return c, true, nil
	})
	if err != nil {
		return nil, err
	}
	if scanner == nil {
		return wal.Create(logPath, snapSeq+1, cfg)
	}
	scan := scanner.Scan()
	if met != nil {
		met.RecoveryReplays.Add(uint64(replays))
		met.RecoveryDiscards.Add(uint64(scan.Discarded))
	}
	return wal.OpenForAppend(logPath, scan, cfg)
}

// latestSnapshot finds the highest-numbered checkpoint file in cellDir,
// ignoring temporaries. Ignoring rather than deleting: recovery must be
// read-only until it has decided the directory is sane.
func latestSnapshot(cellDir string) (path string, seq uint64, ok bool, err error) {
	entries, err := os.ReadDir(cellDir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return "", 0, false, nil
		}
		return "", 0, false, err
	}
	for _, e := range entries {
		if s, isSnap := core.ParseSnapshotName(e.Name()); isSnap && (!ok || s > seq) {
			path, seq, ok = filepath.Join(cellDir, e.Name()), s, true
		}
	}
	return path, seq, ok, nil
}
