package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/relation"
)

const (
	snapMagic   = "RSN1"
	snapVersion = 1
	snapHdrSize = 24 // magic(4) + version(4) + seq(8) + count(8)

	// snapChunkTuples bounds the tuples per chunk frame, so a snapshot
	// reader verifies and decodes in bounded pieces and a corrupt chunk is
	// localized by its CRC.
	snapChunkTuples = 4096
)

// WriteSnapshot serializes tuples — the full relation state covering
// every log record with sequence number ≤ seq — to path, atomically: the
// file is built at path+".tmp", synced, and renamed into place, so a
// crash mid-write never leaves a half-snapshot under the real name
// (recovery ignores *.tmp files). Returns the bytes written.
func WriteSnapshot(path string, seq uint64, tuples []relation.Tuple, met *obs.Metrics) (int64, error) {
	fi := faultinject.Active()
	if fi != nil {
		if err := fi.Point("ckpt.create", true); err != nil {
			return 0, err
		}
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	abort := func(cause error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, cause
	}
	var hdr [snapHdrSize]byte
	copy(hdr[:4], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], snapVersion)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(tuples)))
	if _, err := f.Write(hdr[:]); err != nil {
		return abort(err)
	}
	written := int64(snapHdrSize)
	enc := newEncoder()
	var buf []byte
	for off := 0; off < len(tuples); off += snapChunkTuples {
		end := off + snapChunkTuples
		if end > len(tuples) {
			end = len(tuples)
		}
		if fi != nil {
			if err := fi.Point("ckpt.write", true); err != nil {
				return abort(err)
			}
		}
		buf = sealFrame(enc.appendChunk(beginFrame(buf), tuples[off:end]))
		enc.commit()
		if _, err := f.Write(buf); err != nil {
			return abort(err)
		}
		written += int64(len(buf))
	}
	if fi != nil {
		if err := fi.Point("ckpt.sync", true); err != nil {
			return abort(err)
		}
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	if met != nil {
		met.WalFsyncs.Add(1)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if fi != nil {
		// A panic here models a crash at the rename boundary: recovery sees
		// either the previous snapshot set (tmp ignored) or the new
		// snapshot, whose covered records the not-yet-rotated log still
		// holds (replay skips them by sequence number).
		if err := fi.Point("ckpt.rename", true); err != nil {
			os.Remove(tmp)
			return 0, err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(filepath.Dir(path))
	if met != nil {
		met.CkptWrites.Add(1)
		met.CkptBytes.Add(uint64(written))
	}
	return written, nil
}

// syncDir makes a rename durable on POSIX filesystems by syncing the
// containing directory; best-effort (some filesystems refuse directory
// fsync), since the rename is already atomic for crash-consistency.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// ReadSnapshot reads and verifies a snapshot file, returning the tuples
// and the sequence number they cover. A snapshot only exists under its
// real name after a completed write+rename, so any damage — torn tail
// included — is in-place corruption and fails loudly.
func ReadSnapshot(path string) ([]relation.Tuple, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < snapHdrSize {
		return nil, 0, fmt.Errorf("%w: snapshot %s shorter than its header", ErrCorrupt, path)
	}
	if string(data[:4]) != snapMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %q in snapshot %s", ErrCorrupt, data[:4], path)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != snapVersion {
		return nil, 0, fmt.Errorf("wal: snapshot %s has format version %d, this build reads %d", path, v, snapVersion)
	}
	seq := binary.LittleEndian.Uint64(data[8:])
	count := binary.LittleEndian.Uint64(data[16:])
	tuples := make([]relation.Tuple, 0, count)
	dec := &decoder{}
	var p copier // one values block per chunk
	off := snapHdrSize
	for off < len(data) {
		rem := len(data) - off
		if rem < frameHdrSize {
			return nil, 0, fmt.Errorf("%w: truncated chunk frame in snapshot %s", ErrCorrupt, path)
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		want := binary.LittleEndian.Uint32(data[off+4:])
		if plen > rem-frameHdrSize {
			return nil, 0, fmt.Errorf("%w: chunk runs past end of snapshot %s", ErrCorrupt, path)
		}
		payload := data[off+frameHdrSize : off+frameHdrSize+plen]
		if crc32.Checksum(payload, castagnoli) != want {
			return nil, 0, fmt.Errorf("%w: chunk CRC mismatch at offset %d of snapshot %s", ErrCorrupt, off, path)
		}
		ts, err := dec.readChunk(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("chunk at offset %d of snapshot %s: %w", off, path, err)
		}
		tuples = p.appendTuples(tuples, ts)
		off += frameHdrSize + plen
	}
	if uint64(len(tuples)) != count {
		return nil, 0, fmt.Errorf("%w: snapshot %s holds %d tuples, header declares %d", ErrCorrupt, path, len(tuples), count)
	}
	return tuples, seq, nil
}
