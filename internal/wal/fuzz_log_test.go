package wal

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// fuzzLog builds a short log's commits from data. The records bind one
// column set up to a switch point and another after it, and their values
// are small, negative or large ints or short strings — a string's first use
// is a new dictionary entry, a later one reuses it. Exhausted data reads as
// zeros, so every input is a log.
func fuzzLog(data []byte) []Commit {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	word := func() uint64 {
		var u uint64
		for range 8 {
			u = u<<8 | uint64(next())
		}
		return u
	}
	sets := [2][]string{{"a", "b", "c"}, {"a", "c", "d", "e"}}
	tuples := func(cols []string, n byte) []relation.Tuple {
		ts := make([]relation.Tuple, n)
		for k := range ts {
			vals := make([]value.Value, len(cols))
			for i := range vals {
				switch next() % 4 {
				case 0:
					vals[i] = value.OfInt(int64(int8(next())))
				case 1:
					vals[i] = value.OfInt(math.MinInt64 + int64(word()>>1))
				case 2:
					vals[i] = value.OfInt(1<<62 + int64(word()>>2))
				default:
					s := make([]byte, next()%4)
					for j := range s {
						s[j] = 'p' + next()%4
					}
					vals[i] = value.OfString(string(s))
				}
			}
			ts[k] = relation.SortedTuple(cols, vals)
		}
		return ts
	}
	n := int(next()%6) + 1
	switchAt := int(next()) % (n + 1)
	commits := make([]Commit, n)
	for i := range commits {
		cols := sets[0]
		if i >= switchAt {
			cols = sets[1]
		}
		commits[i] = Commit{Seq: uint64(i + 1), Removed: tuples(cols, next()%3), Inserted: tuples(cols, next()%4)}
	}
	return commits
}

// FuzzLogRecord states decode ∘ encode = id on log records as recovery
// reads them — through the Scanner's reused view, one record at a time,
// with dictionary entries defined along the way and the column set changing
// partway — and that every view equals ReadLog's owned copy of the same
// record. A record cut short is refused with ErrCorrupt; a record with a
// flipped byte is refused with ErrCorrupt by the Scanner (the frame's CRC),
// and its payload decoded past the CRC is refused or decodes, never
// panics.
func FuzzLogRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 2, 3, 'x', 0, 5, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{5, 2, 2, 3, 3, 2, 3, 1, 3, 0, 3, 3, 3, 1, 0, 9, 3, 2, 1, 2, 0, 0x80, 3, 3, 0, 1, 2, 3})
	f.Add([]byte{1, 0, 0, 2, 0, 0x81, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1})
	// Two one-tuple records over the two column sets: a ReadLog that kept
	// the Scanner's views instead of copying them reads the second twice.
	f.Add([]byte("11010000001"))

	f.Fuzz(func(t *testing.T, data []byte) {
		commits := fuzzLog(data)
		// The file Log.Append writes (TestFramesAreHeaderThenPayload pins
		// it), built in memory so each record's frame is known.
		file := make([]byte, logHdrSize)
		copy(file, logMagic)
		binary.LittleEndian.PutUint32(file[4:], logVersion)
		binary.LittleEndian.PutUint64(file[8:], 1)
		enc := newEncoder()
		var starts []int
		var dictAt []int // the dictionary's length before each record
		for _, c := range commits {
			starts = append(starts, len(file))
			dictAt = append(dictAt, int(enc.next))
			file = append(file, sealFrame(enc.appendCommit(beginFrame(nil), c))...)
			enc.commit()
		}
		starts = append(starts, len(file))
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}

		owned, err := ReadLog(path)
		if err != nil || len(owned.Commits) != len(commits) {
			t.Fatalf("ReadLog: %v, %d records of %d", err, len(owned.Commits), len(commits))
		}
		s, err := NewScanner(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range commits {
			got, ok, err := s.Next()
			if err != nil || !ok {
				t.Fatalf("record %d: %v, %v", i, ok, err)
			}
			if got.Seq != want.Seq || !eqTuples(got.Removed, want.Removed) || !eqTuples(got.Inserted, want.Inserted) {
				t.Fatalf("record %d decodes to %+v, want %+v", i, got, want)
			}
			if o := owned.Commits[i]; o.Seq != got.Seq || !eqTuples(got.Removed, o.Removed) || !eqTuples(got.Inserted, o.Inserted) {
				t.Fatalf("record %d: the view %+v, ReadLog's copy %+v", i, got, o)
			}
		}
		if _, ok, err := s.Next(); ok || err != nil {
			t.Fatalf("past the last record: %v, %v", ok, err)
		}

		// Each record's payload, cut at every length and with every byte
		// flipped, decoded with the dictionary it was written against.
		for i := range commits {
			payload := file[starts[i]+frameHdrSize : starts[i+1]]
			dec := func() *decoder {
				d := s.dec.dict[:dictAt[i]:dictAt[i]]
				return &decoder{dict: d}
			}
			for n := range payload {
				if _, err := dec().readCommit(payload[:n]); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("record %d cut to %d of %d bytes: %v, want ErrCorrupt", i, n, len(payload), err)
				}
			}
			damaged := append([]byte(nil), payload...)
			for k := range damaged {
				damaged[k] ^= 0xff
				if _, err := dec().readCommit(damaged); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("record %d with byte %d flipped: %v, want ErrCorrupt or a record", i, k, err)
				}
				damaged[k] ^= 0xff
			}
		}

		// A flipped byte in a record with another behind it fails the CRC
		// mid-log: the Scanner hands out the records before it, then
		// ErrCorrupt.
		if len(commits) < 2 {
			return
		}
		k := int(uint(len(data)) % uint(len(commits)-1))
		at := starts[k] + frameHdrSize + int(uint(len(data))%uint(starts[k+1]-starts[k]-frameHdrSize))
		file[at] ^= 0x5a
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err = NewScanner(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range k {
			if _, ok, err := s.Next(); !ok || err != nil {
				t.Fatalf("record %d before the damage: %v, %v", i, ok, err)
			}
		}
		if _, ok, err := s.Next(); ok || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record %d with byte %d flipped: %v, %v, want ErrCorrupt", k, at, ok, err)
		}
	})
}
