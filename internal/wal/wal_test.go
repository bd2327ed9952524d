package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/relation"
)

func tup(bs ...relation.Binding) relation.Tuple { return relation.NewTuple(bs...) }

func bi(col string, v int64) relation.Binding  { return relation.BindInt(col, v) }
func bs(col string, s string) relation.Binding { return relation.BindString(col, s) }
func eqTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestEncodeRoundTrip(t *testing.T) {
	enc := newEncoder()
	commits := []Commit{
		{Seq: 1, Inserted: []relation.Tuple{tup(bi("pid", 7), bs("state", "running"), bs("host", "a1"))}},
		{Seq: 2, Removed: []relation.Tuple{tup(bi("pid", 7), bs("state", "running"), bs("host", "a1"))},
			Inserted: []relation.Tuple{tup(bi("pid", 7), bs("state", "sleeping"), bs("host", "a1"))}},
		{Seq: 3, Inserted: []relation.Tuple{tup(bi("pid", -9), bs("state", "running"), bs("host", "a2"))}},
	}
	dec := &decoder{}
	for i, c := range commits {
		payload := enc.appendCommit(nil, c)
		enc.commit()
		got, err := dec.readCommit(payload)
		if err != nil {
			t.Fatalf("commit %d: decode: %v", i, err)
		}
		if got.Seq != c.Seq || !eqTuples(got.Removed, c.Removed) || !eqTuples(got.Inserted, c.Inserted) {
			t.Fatalf("commit %d: round-trip mismatch: %+v != %+v", i, got, c)
		}
	}
	// Interning: the second record reuses "pid"/"state"/"host"/"running"
	// and adds only "sleeping"; the payload must be smaller than the first.
	p1 := enc.appendCommit(nil, commits[0])
	enc.abort()
	if len(p1) <= 0 {
		t.Fatal("empty payload")
	}
}

// TestDecodeSharesColumnNames: every tuple of a relation carries the same
// sorted columns, so the decoder names them once per column set, not once
// per tuple, and the values of a whole chunk share one allocation — a
// 1,000-tuple chunk costs a handful of allocations where it used to cost
// two per tuple. A chunk whose tuples change shape part-way — shorter, a
// different column at the same width, back again — still decodes each
// tuple under its own columns.
func TestDecodeSharesColumnNames(t *testing.T) {
	const n = 1000
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = tup(bi("pid", int64(i)), bs("state", "running"), bi("cpu", int64(i%7)))
	}
	payload := NewStreamEncoder().AppendChunk(nil, ts)
	var got []relation.Tuple
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if got, err = NewStreamDecoder().ReadChunk(payload); err != nil {
			t.Fatal(err)
		}
	})
	if !eqTuples(got, ts) {
		t.Fatal("chunk round-trip mismatch")
	}
	// The chunk's own few: the decoder, the dictionary, the tuple slice, the
	// one shared column-name slice and the one values slab.
	if allocs >= 32 {
		t.Fatalf("decoding %d same-shaped tuples allocated %.0f times, want a handful", n, allocs)
	}

	mixed := []relation.Tuple{
		tup(bi("a", 1), bi("b", 2)),
		tup(bi("a", 3), bi("b", 4)),
		tup(bi("a", 5)),
		tup(bi("a", 6), bi("c", 7)),
		tup(bi("a", 8), bi("b", 9)),
		tup(),
		tup(bi("a", 10), bi("b", 11)),
	}
	enc := NewStreamEncoder()
	dec := NewStreamDecoder()
	back, err := dec.ReadChunk(enc.AppendChunk(nil, mixed))
	if err != nil || !eqTuples(back, mixed) {
		t.Fatalf("mixed-shape chunk: %v, %v", back, err)
	}
	// The column set carries over from payload to payload of one stream.
	c := Commit{Seq: 4, Removed: mixed[:1], Inserted: mixed[3:5]}
	rc, err := dec.dec.readCommit(enc.AppendCommit(nil, c))
	if err != nil || !eqTuples(rc.Removed, c.Removed) || !eqTuples(rc.Inserted, c.Inserted) {
		t.Fatalf("commit after chunk: %+v, %v", rc, err)
	}
}

func TestEncoderAbortRollsBackDict(t *testing.T) {
	enc := newEncoder()
	_ = enc.appendCommit(nil, Commit{Seq: 1, Inserted: []relation.Tuple{tup(bs("c", "x"))}})
	enc.abort()
	if len(enc.dict) != 0 || enc.next != 0 {
		t.Fatalf("abort left dictionary state: %v next=%d", enc.dict, enc.next)
	}
	// A committed record then re-interns from scratch and decodes.
	payload := enc.appendCommit(nil, Commit{Seq: 1, Inserted: []relation.Tuple{tup(bs("c", "x"))}})
	enc.commit()
	dec := &decoder{}
	if _, err := dec.readCommit(payload); err != nil {
		t.Fatalf("decode after abort+retry: %v", err)
	}
}

func writeCommits(t *testing.T, path string, n int) *Log {
	t.Helper()
	l, err := Create(path, 1, Config{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c := Commit{Inserted: []relation.Tuple{tup(bi("k", int64(i)), bs("v", "payload"))}}
		if err := l.Append(c); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	return l
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := writeCommits(t, path, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := readLog(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.BaseSeq != 1 || sc.NextSeq != 11 || len(sc.Commits) != 10 || sc.Discarded != 0 {
		t.Fatalf("scan: base=%d next=%d commits=%d discarded=%d", sc.BaseSeq, sc.NextSeq, len(sc.Commits), sc.Discarded)
	}
	for i, c := range sc.Commits {
		if c.Seq != uint64(i+1) {
			t.Fatalf("commit %d has seq %d", i, c.Seq)
		}
		want := tup(bi("k", int64(i)), bs("v", "payload"))
		if len(c.Inserted) != 1 || !c.Inserted[0].Equal(want) {
			t.Fatalf("commit %d: %v != %v", i, c.Inserted, want)
		}
	}
}

// TestTornTailDiscarded truncates the file at every offset inside the
// final record: every cut must scan as a clean torn tail holding exactly
// the first n-1 commits.
func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l := writeCommits(t, path, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := readLog(t, path)
	if err != nil {
		t.Fatal(err)
	}
	// Offset where the last record begins.
	lastStart := int64(len(full))
	{
		l2 := writeCommits(t, filepath.Join(dir, "two.log"), 2)
		lastStart = l2.Size()
		l2.Close()
	}
	for cut := lastStart + 1; cut < int64(len(full)); cut++ {
		p := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readLog(t, p)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got.Commits) != 2 || got.Discarded != 1 {
			t.Fatalf("cut %d: %d commits, %d discarded", cut, len(got.Commits), got.Discarded)
		}
		if got.ValidSize != lastStart {
			t.Fatalf("cut %d: valid size %d, want %d", cut, got.ValidSize, lastStart)
		}
	}
	_ = sc
}

// TestMidLogCorruptionLoud flips a byte inside an interior record: with
// valid data following, the scan must refuse with ErrCorrupt instead of
// discarding acknowledged commits.
func TestMidLogCorruptionLoud(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := writeCommits(t, path, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[logHdrSize+frameHdrSize+1] ^= 0xFF // inside the first record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readLog(t, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption scanned as %v, want ErrCorrupt", err)
	}
}

// TestTornFinalRecordCRC corrupts the last record without shortening the
// file: the frame extends exactly to EOF, so it is discarded as torn.
func TestTornFinalRecordCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := writeCommits(t, path, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := readLog(t, path)
	if err != nil {
		t.Fatalf("CRC-failed final record: %v", err)
	}
	if len(sc.Commits) != 2 || sc.Discarded != 1 {
		t.Fatalf("got %d commits, %d discarded", len(sc.Commits), sc.Discarded)
	}
}

func TestOpenForAppendContinuesDictionaryAndSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := writeCommits(t, path, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := readLog(t, path)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := OpenForAppend(path, sc, Config{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// The reopened log reuses interned strings and continues sequencing.
	if err := l2.Append(Commit{Inserted: []relation.Tuple{tup(bi("k", 99), bs("v", "payload"))}}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	sc2, err := readLog(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc2.Commits) != 3 || sc2.Commits[2].Seq != 3 {
		t.Fatalf("after reopen-append: %d commits, last seq %d", len(sc2.Commits), sc2.Commits[len(sc2.Commits)-1].Seq)
	}
	if got := sc2.Commits[2].Inserted[0]; !got.Equal(tup(bi("k", 99), bs("v", "payload"))) {
		t.Fatalf("reopen-append round trip: %v", got)
	}
}

func TestOpenForAppendTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := writeCommits(t, path, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage frame header at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sc, err := readLog(t, path)
	if err != nil || sc.Discarded != 1 {
		t.Fatalf("scan: %v discarded=%d", err, sc.Discarded)
	}
	l2, err := OpenForAppend(path, sc, Config{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(Commit{Inserted: []relation.Tuple{tup(bi("k", 5), bs("v", "x"))}}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	sc2, err := readLog(t, path)
	if err != nil || len(sc2.Commits) != 3 || sc2.Discarded != 0 {
		t.Fatalf("after truncate+append: err=%v commits=%d discarded=%d", err, len(sc2.Commits), sc2.Discarded)
	}
}

func TestRotateTruncatesAndRebase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	m := &obs.Metrics{}
	l, err := Create(path, 1, Config{Policy: SyncAlways, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(Commit{Inserted: []relation.Tuple{tup(bi("k", int64(i)))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(5); err != nil {
		t.Fatal(err)
	}
	if l.nextSeq != 5 {
		t.Fatalf("nextSeq after rotate: %d", l.nextSeq)
	}
	if err := l.Append(Commit{Inserted: []relation.Tuple{tup(bi("k", 100))}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := readLog(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.BaseSeq != 5 || len(sc.Commits) != 1 || sc.Commits[0].Seq != 5 {
		t.Fatalf("after rotate: base=%d commits=%d", sc.BaseSeq, len(sc.Commits))
	}
	if m.WalAppends.Load() != 5 {
		t.Fatalf("wal.appends = %d, want 5", m.WalAppends.Load())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("rotation left a tmp file: %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap-1.snap")
	var tuples []relation.Tuple
	for i := 0; i < 10000; i++ { // several chunks
		tuples = append(tuples, tup(bi("k", int64(i)), bs("v", "state")))
	}
	m := &obs.Metrics{}
	n, err := WriteSnapshot(path, 42, tuples, m)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("no bytes written")
	}
	got, seq, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || !eqTuples(got, tuples) {
		t.Fatalf("snapshot round trip: seq=%d len=%d", seq, len(got))
	}
	if m.CkptWrites.Load() != 1 || m.CkptBytes.Load() != uint64(n) {
		t.Fatalf("ckpt counters: writes=%d bytes=%d want 1/%d", m.CkptWrites.Load(), m.CkptBytes.Load(), n)
	}
}

func TestSnapshotCorruptionLoud(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap-1.snap")
	tuples := []relation.Tuple{tup(bi("k", 1), bs("v", "x"))}
	if _, err := WriteSnapshot(path, 7, tuples, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) - 1, snapHdrSize + 2} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated snapshot at %d read as %v, want ErrCorrupt", cut, err)
		}
	}
	flip := append([]byte(nil), data...)
	flip[snapHdrSize+frameHdrSize] ^= 0xFF
	if err := os.WriteFile(path, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped snapshot read as %v, want ErrCorrupt", err)
	}
}

func TestGroupCommitSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	m := &obs.Metrics{}
	l, err := Create(path, 1, Config{Policy: SyncInterval, Interval: time.Millisecond, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Commit{Inserted: []relation.Tuple{tup(bi("k", 1))}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for m.WalFsyncs.Load() < 2 && time.Now().Before(deadline) { // header sync + group commit
		time.Sleep(time.Millisecond)
	}
	if m.WalFsyncs.Load() < 2 {
		t.Fatalf("group commit never synced: fsyncs=%d", m.WalFsyncs.Load())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeAllocatesPerPayload pins what decoding a commit payload costs
// once its columns are known and the decoder has seen a record as large:
// nothing, whatever the number of tuples, because the record is a view into
// the decoder's reused tuple slice and values slab. It was the list and
// one values slice per tuple, and then the list and one slab per record.
func TestDecodeAllocatesPerPayload(t *testing.T) {
	row := func(i int) relation.Tuple {
		return tup(bi("local", int64(i%7)), bi("foreign", int64(i)), bi("packets", 1), bi("bytes", int64(64*i)))
	}
	enc := newEncoder()
	dec := &decoder{}
	warm := enc.appendCommit(nil, Commit{Seq: 1, Inserted: []relation.Tuple{row(0)}})
	enc.commit()
	if _, err := dec.readCommit(warm); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 64} {
		c := Commit{Seq: 2}
		for i := range n {
			c.Inserted = append(c.Inserted, row(i))
		}
		payload := enc.appendCommit(nil, c)
		enc.commit()
		var got Commit
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if got, err = dec.readCommit(payload); err != nil {
				t.Fatal(err)
			}
		})
		if !eqTuples(got.Inserted, c.Inserted) {
			t.Fatalf("%d tuples: round-trip mismatch", n)
		}
		if allocs != 0 {
			t.Errorf("decoding a %d-tuple commit allocated %.0f times, want 0 (a view into the decoder's storage)", n, allocs)
		}
	}
}

// readLog is ReadLog checked against a Scanner drained by hand: the same
// records, the same end state, the same error. A record the Scanner hands
// out is a view valid until its next call, so each is compared with
// ReadLog's copy before the next is asked for.
func readLog(t *testing.T, path string) (*Scan, error) {
	t.Helper()
	want, werr := ReadLog(path)
	s, err := NewScanner(path)
	n := 0
	for err == nil {
		c, ok, nerr := s.Next()
		if err = nerr; !ok {
			break
		}
		if werr == nil {
			if n >= len(want.Commits) {
				t.Fatalf("the Scanner hands out record %d, ReadLog holds %d", n, len(want.Commits))
			}
			if w := want.Commits[n]; c.Seq != w.Seq || !eqTuples(c.Removed, w.Removed) || !eqTuples(c.Inserted, w.Inserted) {
				t.Fatalf("record %d: Scanner %+v, ReadLog %+v", n, c, w)
			}
		}
		n++
	}
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("ReadLog: %v, draining a Scanner: %v", werr, err)
	}
	if err != nil {
		return want, werr
	}
	sc := s.Scan()
	if sc.BaseSeq != want.BaseSeq || sc.NextSeq != want.NextSeq || sc.ValidSize != want.ValidSize ||
		sc.Discarded != want.Discarded || len(sc.Dict) != len(want.Dict) || n != len(want.Commits) {
		t.Fatalf("Scanner ended at %+v with %d commits, ReadLog at %+v with %d", *sc, n, *want, len(want.Commits))
	}
	return want, werr
}

// TestScannerStopsAtMidLogDamage corrupts record k+1 of a longer log: the
// Scanner hands out records 1..k, then ErrCorrupt, and ErrCorrupt again on
// every later call; its state is the valid prefix's.
func TestScannerStopsAtMidLogDamage(t *testing.T) {
	const k = 3
	path := filepath.Join(t.TempDir(), "wal.log")
	l := writeCommits(t, path, 6)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := logHdrSize
	for range k {
		off += frameHdrSize + int(binary.LittleEndian.Uint32(data[off:]))
	}
	data[off+frameHdrSize+1] ^= 0xFF // inside record k+1's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewScanner(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= k; i++ {
		c, ok, err := s.Next()
		if err != nil || !ok || c.Seq != uint64(i) {
			t.Fatalf("record %d: seq %d, %v, %v", i, c.Seq, ok, err)
		}
	}
	for range 2 {
		if _, ok, err := s.Next(); ok || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("past the damage: %v, %v, want ErrCorrupt", ok, err)
		}
	}
	if sc := s.Scan(); sc.NextSeq != k+1 || sc.ValidSize != int64(off) || sc.Discarded != 0 {
		t.Fatalf("scan state %+v, want the first %d records", *sc, k)
	}
	if _, err := readLog(t, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadLog: %v, want ErrCorrupt", err)
	}
}

// TestAbortForgetsColumnIDs: the encoder takes a tuple's column ids from
// the tuple before it when their names match. A failed append rolls back
// the dictionary entries that first named those columns, so the remembered
// ids must go too: the retry must define the columns again, or its record
// names dictionary entries that were never written.
func TestAbortForgetsColumnIDs(t *testing.T) {
	p := faultinject.NewPlane()
	faultinject.Install(p)
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, 1, Config{Policy: SyncOff})
	faultinject.Uninstall()
	if err != nil {
		t.Fatal(err)
	}
	c := Commit{Inserted: []relation.Tuple{tup(bi("k", 1), bi("n", 2))}}
	p.Reset()
	p.Arm(3, faultinject.Error) // begin, frame, payload: fail after the whole frame hit the file
	if err := l.Append(c); err == nil {
		t.Fatal("armed append succeeded")
	}
	if f := p.Fired(); len(f) != 1 || f[0].Site != "wal.append.payload" {
		t.Fatalf("fired %v, want one fault at wal.append.payload", f)
	}
	if err := l.Append(c); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := readLog(t, path)
	if err != nil {
		t.Fatalf("log after a rolled-back append: %v", err)
	}
	if len(sc.Commits) != 1 || sc.Commits[0].Seq != 1 || !eqTuples(sc.Commits[0].Inserted, c.Inserted) {
		t.Fatalf("log after a rolled-back append holds %+v, want the retried record", sc.Commits)
	}
}

// TestStreamEncoderAlternatesColumnSets: tuples over two column sets, one
// after the other inside a payload and across payloads, each take their
// own column ids whichever set the tuple before them had.
func TestStreamEncoderAlternatesColumnSets(t *testing.T) {
	ab := func(i int64) relation.Tuple { return tup(bi("a", i), bs("b", "x")) }
	cde := func(i int64) relation.Tuple { return tup(bi("c", i), bi("d", -i), bs("e", "y")) }
	enc, dec := NewStreamEncoder(), NewStreamDecoder()
	for i := int64(0); i < 4; i++ {
		c := Commit{Seq: uint64(i + 1), Removed: []relation.Tuple{ab(i), cde(i)}, Inserted: []relation.Tuple{cde(i + 1), cde(i + 2), ab(i + 1)}}
		got, err := dec.dec.readCommit(enc.AppendCommit(nil, c))
		if err != nil || got.Seq != c.Seq || !eqTuples(got.Removed, c.Removed) || !eqTuples(got.Inserted, c.Inserted) {
			t.Fatalf("commit %d: %+v, %v", i, got, err)
		}
		chunk := []relation.Tuple{ab(i), ab(i + 1), cde(i), ab(i + 2)}
		back, err := dec.ReadChunk(enc.AppendChunk(nil, chunk))
		if err != nil || !eqTuples(back, chunk) {
			t.Fatalf("chunk %d: %v, %v", i, back, err)
		}
	}
}

// TestAppendAllocatesNothing: once a record's strings are interned, an
// append reuses the log's frame buffer and the encoder's scratch and
// column ids, and writes the frame with one call.
func TestAppendAllocatesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, 1, Config{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := Commit{
		Removed:  []relation.Tuple{tup(bi("local", 3), bi("foreign", 9), bi("packets", 1), bs("state", "open"))},
		Inserted: []relation.Tuple{tup(bi("local", 3), bi("foreign", 9), bi("packets", 2), bs("state", "open"))},
	}
	if err := l.Append(c); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := l.Append(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("an append of interned strings allocated %.0f times, want 0", allocs)
	}
}

// TestFramesAreHeaderThenPayload: the log file is its header and then, per
// record, the payload's length and CRC followed by the payload — byte for
// byte what a separate encoder makes of the same commits, and what the
// scanner reads back.
func TestFramesAreHeaderThenPayload(t *testing.T) {
	const n = 50
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, 7, Config{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, logHdrSize)
	copy(want, logMagic)
	binary.LittleEndian.PutUint32(want[4:], logVersion)
	binary.LittleEndian.PutUint64(want[8:], 7)
	enc := newEncoder()
	var commits []Commit
	for i := range n {
		c := Commit{Inserted: []relation.Tuple{tup(bi("k", int64(i)), bs("v", fmt.Sprint("s", i%5)))}}
		if i%3 == 0 {
			c.Removed = []relation.Tuple{tup(bi("k", int64(i-1)), bi("w", int64(i)))}
		}
		if err := l.Append(c); err != nil {
			t.Fatal(err)
		}
		c.Seq = uint64(7 + i)
		commits = append(commits, c)
		payload := enc.appendCommit(nil, c)
		enc.commit()
		want = binary.LittleEndian.AppendUint32(want, uint32(len(payload)))
		want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(payload, castagnoli))
		want = append(want, payload...)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log file is %d bytes, the frames of its commits %d, and they differ", len(got), len(want))
	}
	sc, err := readLog(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.ValidSize != int64(len(want)) || len(sc.Commits) != n {
		t.Fatalf("scan ends at %d with %d records, want %d and %d", sc.ValidSize, len(sc.Commits), len(want), n)
	}
	for i, c := range sc.Commits {
		w := commits[i]
		if c.Seq != w.Seq || !eqTuples(c.Removed, w.Removed) || !eqTuples(c.Inserted, w.Inserted) {
			t.Fatalf("record %d: %+v, want %+v", i, c, w)
		}
	}
}

// TestViewDecodesAllocateNothing pins the three decoders a replay runs at
// zero allocations per record once warm: a record is a view into the
// decoder's reused tuple slice and values slab. Scanner.Next reads a log of
// int-only flows records (inserts, updates and removes, as recovery
// replays them); PayloadDecoder.Read a follower's commit payloads; and
// StreamDecoder.ReadChunk a bootstrap's snapshot chunks. Each view must
// still equal what was encoded, and the payload decoder, which lives as
// long as a session, must keep no storage of a record past keepValues.
func TestViewDecodesAllocateNothing(t *testing.T) {
	flow := func(i int64) relation.Tuple {
		return tup(bi("local", i%200), bi("foreign", i), bi("packets", i%5), bi("bytes", 64*i))
	}
	record := func(i int64) Commit {
		switch i % 10 {
		case 7, 8:
			return Commit{Removed: []relation.Tuple{flow(i - 1)}, Inserted: []relation.Tuple{flow(i)}}
		case 9:
			return Commit{Removed: []relation.Tuple{flow(i - 2)}}
		}
		return Commit{Inserted: []relation.Tuple{flow(i)}}
	}
	const warm, runs = 20, 200
	records := make([]Commit, warm+runs+1)
	for i := range records {
		records[i] = record(int64(i))
	}
	same := func(got Commit, i int) bool {
		want := records[i]
		return eqTuples(got.Removed, want.Removed) && eqTuples(got.Inserted, want.Inserted)
	}

	t.Run("Scanner.Next", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "wal.log")
		l, err := Create(path, 1, Config{Policy: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range records {
			if err := l.Append(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		s, err := NewScanner(path)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		next := func() {
			c, ok, err := s.Next()
			if err != nil || !ok || c.Seq != uint64(i+1) || !same(c, i) {
				t.Fatalf("record %d: %+v, %v, %v", i, c, ok, err)
			}
			i++
		}
		for range warm {
			next()
		}
		if allocs := testing.AllocsPerRun(runs, next); allocs != 0 {
			t.Fatalf("Scanner.Next allocated %.2f times per record, want 0", allocs)
		}
	})

	t.Run("PayloadDecoder.Read", func(t *testing.T) {
		cols := flow(0).Dom().Names()
		d := NewPayloadDecoder(cols)
		payloads := make([][]byte, len(records))
		for i, c := range records {
			payloads[i] = AppendCommitPayload(nil, c)
		}
		i := 0
		read := func() {
			c, err := d.Read(payloads[i])
			if err != nil || !same(c, i) {
				t.Fatalf("payload %d: %+v, %v", i, c, err)
			}
			i++
		}
		for range warm {
			read()
		}
		if allocs := testing.AllocsPerRun(runs, read); allocs != 0 {
			t.Fatalf("PayloadDecoder.Read allocated %.2f times per payload, want 0", allocs)
		}
		// A batch insert's record decodes whole, but the session-long
		// decoder does not keep its storage.
		big := Commit{Inserted: make([]relation.Tuple, 2*keepValues/len(cols))}
		for i := range big.Inserted {
			big.Inserted[i] = records[0].Inserted[0]
		}
		if c, err := d.Read(AppendCommitPayload(nil, big)); err != nil || !eqTuples(c.Inserted, big.Inserted) {
			t.Fatalf("a %d-tuple payload: %d tuples, %v", len(big.Inserted), len(c.Inserted), err)
		}
		if cap(d.vals) != 0 || cap(d.ts) != 0 {
			t.Fatalf("the decoder kept %d values and %d tuples of a %d-tuple record", cap(d.vals), cap(d.ts), len(big.Inserted))
		}
	})

	t.Run("StreamDecoder.ReadChunk", func(t *testing.T) {
		enc, dec := NewStreamEncoder(), NewStreamDecoder()
		chunk := func(k int64) []relation.Tuple {
			ts := make([]relation.Tuple, 512)
			for i := range ts {
				ts[i] = flow(k*512 + int64(i))
			}
			return ts
		}
		if _, err := dec.ReadChunk(enc.AppendChunk(nil, chunk(0))); err != nil {
			t.Fatal(err)
		}
		// The first chunk defined the stream's names; the second defines
		// none, so it can be read again and again.
		second := chunk(1)
		payload := enc.AppendChunk(nil, second)
		if allocs := testing.AllocsPerRun(runs, func() {
			ts, err := dec.ReadChunk(payload)
			if err != nil || !eqTuples(ts, second) {
				t.Fatalf("chunk: %d tuples, %v", len(ts), err)
			}
		}); allocs != 0 {
			t.Fatalf("StreamDecoder.ReadChunk allocated %.2f times per chunk, want 0", allocs)
		}
	})
}
