package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/faultinject"
)

const (
	logMagic     = "RWL1"
	logVersion   = 1
	logHdrSize   = 16 // magic(4) + version(4) + baseSeq(8)
	frameHdrSize = 8  // payloadLen(4) + crc32c(4)
)

// A Log is an append-only write-ahead log file open for writing. One Log
// serializes one MVCC cell's commits (the whole relation on the sync
// tier, one shard on the sharded tier), so Append is called under that
// cell's writer mutex; the Log's own mutex additionally serializes
// against the group-commit goroutine and Close.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	enc     *encoder
	buf     []byte
	nextSeq uint64
	size    int64 // end offset of the last durable frame
	cfg     Config
	fi      *faultinject.Plane

	dirty  bool  // bytes written since the last fsync
	wedged bool  // a panic interrupted a write; tail state unknown
	broken error // sticky unrecoverable failure (e.g. repair truncate failed)
	closed bool

	stopc chan struct{} // group-commit shutdown; nil unless SyncInterval
	done  chan struct{}
}

// Create initializes a fresh log at path whose first record will carry
// sequence number baseSeq, syncs the header, and opens it for append. An
// existing file is truncated (recovery only calls this when no committed
// data can exist).
func Create(path string, baseSeq uint64, cfg Config) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [logHdrSize]byte
	copy(hdr[:4], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:], logVersion)
	binary.LittleEndian.PutUint64(hdr[8:], baseSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if m := cfg.Metrics; m != nil {
		m.WalFsyncs.Add(1)
	}
	l := &Log{
		f: f, path: path, enc: newEncoder(),
		nextSeq: baseSeq, size: logHdrSize, cfg: cfg,
		fi: faultinject.Active(),
	}
	l.start()
	return l, nil
}

// OpenForAppend reopens an existing log for writing after a scan (a
// drained Scanner's Scan, or ReadLog's):
// the file is truncated back to the scan's last valid frame (discarding
// any torn tail), the interning dictionary resumes from the scan's state,
// and the next append carries the scan's next sequence number.
func OpenForAppend(path string, scan *Scan, cfg Config) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() > scan.ValidSize {
		if err := f.Truncate(scan.ValidSize); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: discarding torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		if m := cfg.Metrics; m != nil {
			m.WalFsyncs.Add(1)
		}
	}
	if _, err := f.Seek(scan.ValidSize, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	enc := newEncoder()
	enc.seed(scan.Dict)
	l := &Log{
		f: f, path: path, enc: enc,
		nextSeq: scan.NextSeq, size: scan.ValidSize, cfg: cfg,
		fi: faultinject.Active(),
	}
	l.start()
	return l, nil
}

func (l *Log) start() {
	if l.cfg.Policy != SyncInterval {
		return
	}
	l.stopc = make(chan struct{})
	l.done = make(chan struct{})
	go l.groupCommit()
}

// groupCommit is the SyncInterval background loop: every tick it syncs
// the file if any append has dirtied it since the last sync. A sync
// failure is sticky — the next Append surfaces it instead of silently
// acknowledging writes that will never become durable.
func (l *Log) groupCommit() {
	defer close(l.done)
	iv := l.cfg.Interval
	if iv <= 0 {
		iv = DefaultInterval
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-l.stopc:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && !l.wedged && l.broken == nil && l.dirty {
				if err := l.f.Sync(); err != nil {
					l.broken = fmt.Errorf("wal: group-commit fsync: %w", err)
				} else {
					l.dirty = false
					if m := l.cfg.Metrics; m != nil {
						m.WalFsyncs.Add(1)
					}
				}
			}
			l.mu.Unlock()
		}
	}
}

// LastSeq returns the sequence number of the last appended record
// (NextSeq-1; baseSeq-1 when the log is empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Size returns the end offset of the last durable frame.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Path returns the log file's path.
func (l *Log) Path() string { return l.path }

// Append encodes c (assigning it the next sequence number), writes the
// frame, and — under SyncAlways — syncs before returning. On an error
// anywhere along the path the log repairs itself by truncating back to
// the last durable frame, so an error return means the record is NOT in
// the log: the caller must treat the mutation as unacknowledged (on the
// durable tier, drop the fork). A panic mid-append (crash semantics)
// leaves the torn tail in place for recovery to discard and wedges the
// Log against further use.
func (l *Log) Append(c Commit) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrClosed
	case l.wedged:
		return ErrWedged
	case l.broken != nil:
		return l.broken
	}
	if l.fi != nil {
		if err := l.fi.Point("wal.append.begin", true); err != nil {
			return err
		}
	}
	c.Seq = l.nextSeq
	frame := sealFrame(l.enc.appendCommit(beginFrame(l.buf), c))
	l.buf = frame
	start := l.size
	l.wedged = true // cleared on every orderly exit; a panic leaves it set
	if err := l.writeFrame(frame); err != nil {
		return l.repair(start, err)
	}
	if l.fi != nil {
		// A panic here models a crash after a complete, un-acknowledged
		// record: recovery may legitimately replay it.
		if err := l.fi.Point("wal.append.payload", true); err != nil {
			return l.repair(start, err)
		}
	}
	if l.cfg.Policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return l.repair(start, err)
		}
	} else {
		l.dirty = true
	}
	if l.fi != nil {
		if err := l.fi.Point("wal.append.ack", true); err != nil {
			return l.repair(start, err)
		}
	}
	l.size = start + int64(len(frame))
	l.nextSeq++
	l.enc.commit()
	l.wedged = false
	if m := l.cfg.Metrics; m != nil {
		m.WalAppends.Add(1)
		m.WalBytes.Add(uint64(len(frame)))
	}
	return nil
}

// beginFrame empties b and reserves the frame header's bytes at its start:
// the payload is encoded behind them, and sealFrame fills them in, so a
// frame reaches the file in one write.
func beginFrame(b []byte) []byte { return append(b[:0], make([]byte, frameHdrSize)...) }

// sealFrame fills in the header of a frame beginFrame started: the length
// and CRC32C of the payload behind it.
func sealFrame(frame []byte) []byte {
	payload := frame[frameHdrSize:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	return frame
}

// writeFrame writes one frame with one write. Under a fault plane it writes
// the header and the payload separately with the wal.append.frame point
// between them, so a crash can still tear a frame exactly there.
func (l *Log) writeFrame(frame []byte) error {
	if l.fi == nil {
		_, err := l.f.Write(frame)
		return err
	}
	if _, err := l.f.Write(frame[:frameHdrSize]); err != nil {
		return err
	}
	// A panic here models a crash after the frame header hit the file: the
	// classic torn record recovery must discard.
	if err := l.fi.Point("wal.append.frame", true); err != nil {
		return err
	}
	_, err := l.f.Write(frame[frameHdrSize:])
	return err
}

// repair unwinds a failed append: the interning dictionary forgets the
// record's entries and the file is truncated back to the last durable
// frame, so the error return and the file agree that the record does not
// exist. If the truncate itself fails the log is marked broken — the
// file tail is unknown, and every later append refuses rather than risk
// writing after garbage (which recovery would report as mid-log
// corruption).
func (l *Log) repair(start int64, cause error) error {
	l.enc.abort()
	if err := l.f.Truncate(start); err != nil {
		l.broken = fmt.Errorf("wal: log unusable, truncate after failed append failed: %v (append failure: %v)", err, cause)
		l.wedged = false
		return cause
	}
	if _, err := l.f.Seek(start, io.SeekStart); err != nil {
		l.broken = fmt.Errorf("wal: log unusable, seek after repair failed: %v", err)
	}
	l.wedged = false
	return cause
}

// syncLocked issues one fsync, counting it. Called with mu held.
func (l *Log) syncLocked() error {
	if l.fi != nil {
		if err := l.fi.Point("wal.fsync", true); err != nil {
			return err
		}
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	if m := l.cfg.Metrics; m != nil {
		m.WalFsyncs.Add(1)
	}
	return nil
}

// Sync forces an fsync now, regardless of policy — the durable tier's
// manual flush for SyncInterval/SyncOff users.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrClosed
	case l.wedged:
		return ErrWedged
	case l.broken != nil:
		return l.broken
	}
	return l.syncLocked()
}

// Rotate atomically replaces the log with a fresh one whose base sequence
// number is newBase, for checkpoint truncation: the new header is written
// to a temporary file, synced, and renamed over the log. The caller must
// guarantee every record below newBase is covered by a durable snapshot
// (the durable tier holds the cell's writer lock across snapshot write
// and rotation). On error the old log is untouched and still usable.
func (l *Log) Rotate(newBase uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrClosed
	case l.wedged:
		return ErrWedged
	case l.broken != nil:
		return l.broken
	}
	if l.fi != nil {
		if err := l.fi.Point("wal.rotate.create", true); err != nil {
			return err
		}
	}
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	abort := func(cause error) error {
		f.Close()
		os.Remove(tmp)
		return cause
	}
	var hdr [logHdrSize]byte
	copy(hdr[:4], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:], logVersion)
	binary.LittleEndian.PutUint64(hdr[8:], newBase)
	if _, err := f.Write(hdr[:]); err != nil {
		return abort(err)
	}
	if l.fi != nil {
		if err := l.fi.Point("wal.rotate.sync", true); err != nil {
			return abort(err)
		}
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	if m := l.cfg.Metrics; m != nil {
		m.WalFsyncs.Add(1)
	}
	l.wedged = true // a panic across the swap leaves the Log unusable
	if l.fi != nil {
		// A panic here models a crash at the rename boundary: recovery sees
		// either the old log (tmp ignored) or the fresh truncated one, both
		// consistent with the already-renamed snapshot.
		if err := l.fi.Point("wal.rotate.rename", true); err != nil {
			l.wedged = false
			return abort(err)
		}
	}
	if err := os.Rename(tmp, l.path); err != nil {
		l.wedged = false
		return abort(err)
	}
	old := l.f
	l.f = f
	old.Close()
	l.enc = newEncoder()
	l.size = logHdrSize
	l.nextSeq = newBase
	l.dirty = false
	l.wedged = false
	return nil
}

// Close stops the group-commit loop, syncs any buffered writes, and
// closes the file. Closing a wedged or broken log surfaces that state.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	if l.stopc != nil {
		close(l.stopc)
		<-l.done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	switch {
	case l.wedged:
		err = ErrWedged
	case l.broken != nil:
		err = l.broken
	case l.dirty:
		if serr := l.f.Sync(); serr != nil {
			err = serr
		} else {
			if m := l.cfg.Metrics; m != nil {
				m.WalFsyncs.Add(1)
			}
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// A Scan is the result of reading a log file: the decoded commits in
// order (ReadLog's; a Scanner hands them out one at a time instead), the
// interning dictionary state after the last valid record (to seed
// OpenForAppend), the end offset of the last valid frame, and how many
// torn trailing frames were discarded (0 or 1 — a crash tears at most the
// final append).
type Scan struct {
	BaseSeq   uint64
	NextSeq   uint64
	Commits   []Commit
	Dict      []string
	ValidSize int64
	Discarded int
}

// ErrNoHeader reports a log file too short to hold its header. Recovery
// treats it as "no log" only when no snapshot exists either (a crash
// during initial creation); with committed data around it is corruption.
var ErrNoHeader = fmt.Errorf("%w: file shorter than the log header", ErrCorrupt)

// A Scanner reads and verifies a log file one record at a time: Next
// decodes the next frame only when it is asked for, so a reader that
// applies each record before asking for the next holds one decoded record,
// not the log. Torn trailing records are dropped (see the package comment
// for the discrimination rule); any other damage is an error wrapping
// ErrCorrupt, which Next returns when the scan reaches it — after handing
// out every record before it.
type Scanner struct {
	path string
	data []byte
	off  int
	dec  decoder
	sc   Scan
	err  error // sticky: the damage the scan stopped at
}

// NewScanner reads the log file at path and checks its header; Next
// decodes the records.
func NewScanner(path string) (*Scanner, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < logHdrSize {
		return nil, ErrNoHeader
	}
	if string(data[:4]) != logMagic {
		return nil, fmt.Errorf("%w: bad magic %q in %s", ErrCorrupt, data[:4], path)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != logVersion {
		return nil, fmt.Errorf("wal: %s has format version %d, this build reads %d", path, v, logVersion)
	}
	base := binary.LittleEndian.Uint64(data[8:])
	return &Scanner{
		path: path,
		data: data,
		off:  logHdrSize,
		sc:   Scan{BaseSeq: base, NextSeq: base, ValidSize: logHdrSize},
	}, nil
}

// Next decodes the next record, checking its CRC and that its sequence
// number follows the previous one's. ok is false once the valid records
// are exhausted (a torn tail, if any, is counted in Scan().Discarded); an
// error ends the scan, and every later call returns it again. Next has the
// shape of a core.CommitSource, so a Scanner feeds a replay directly.
func (s *Scanner) Next() (c Commit, ok bool, err error) {
	if s.err != nil || s.off >= len(s.data) {
		return Commit{}, false, s.err
	}
	data, off := s.data, s.off
	rem := len(data) - off
	if rem < frameHdrSize {
		return s.tear()
	}
	plen := int(binary.LittleEndian.Uint32(data[off:]))
	want := binary.LittleEndian.Uint32(data[off+4:])
	if plen > rem-frameHdrSize {
		return s.tear()
	}
	end := off + frameHdrSize + plen
	payload := data[off+frameHdrSize : end]
	if crc32.Checksum(payload, castagnoli) != want {
		if end == len(data) {
			// The frame extends exactly to EOF: a torn final write.
			return s.tear()
		}
		return s.fail(fmt.Errorf("%w: CRC mismatch at offset %d of %s with %d bytes following — in-place corruption, not a torn tail",
			ErrCorrupt, off, s.path, len(data)-end))
	}
	if c, err = s.dec.readCommit(payload); err != nil {
		return s.fail(fmt.Errorf("record at offset %d of %s: %w", off, s.path, err))
	}
	if c.Seq != s.sc.NextSeq {
		return s.fail(fmt.Errorf("%w: sequence gap at offset %d of %s: record %d where %d expected",
			ErrCorrupt, off, s.path, c.Seq, s.sc.NextSeq))
	}
	s.sc.NextSeq++
	s.off = end
	s.sc.ValidSize = int64(end)
	return c, true, nil
}

// tear discards the rest of the file as one torn final frame.
func (s *Scanner) tear() (Commit, bool, error) {
	s.sc.Discarded++
	s.off = len(s.data)
	return Commit{}, false, nil
}

func (s *Scanner) fail(err error) (Commit, bool, error) {
	s.err = err
	return Commit{}, false, err
}

// Scan returns the state after the records Next has handed out — once
// Next has returned ok false without an error, the end state OpenForAppend
// resumes from. Its Commits is nil.
func (s *Scanner) Scan() *Scan {
	sc := s.sc
	sc.Dict = s.dec.dict
	return &sc
}

// ReadLog reads and verifies a whole log file: a Scanner drained, with
// every record it handed out kept in Scan.Commits.
func ReadLog(path string) (*Scan, error) {
	s, err := NewScanner(path)
	if err != nil {
		return nil, err
	}
	var commits []Commit
	for {
		c, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		commits = append(commits, c)
	}
	sc := s.Scan()
	sc.Commits = commits
	return sc, nil
}
