package wal

import (
	"errors"
	"math"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// payloadCols are the sorted columns of the tuples FuzzCommitPayload builds.
var payloadCols = []string{"a", "b", "c"}

// fuzzCommit builds a commit of full tuples over payloadCols from data: how
// many tuples each list holds and, per value, whether it is a small int, a
// negative int, an int at or past 2^62 or a string, and what it holds.
// Exhausted data reads as zeros, so every input is a commit.
func fuzzCommit(data []byte) Commit {
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
	tuples := func(n byte) []relation.Tuple {
		ts := make([]relation.Tuple, n)
		for k := range ts {
			vals := make([]value.Value, len(payloadCols))
			for i := range vals {
				switch next() % 4 {
				case 0:
					vals[i] = value.OfInt(int64(int8(next())))
				case 1:
					vals[i] = value.OfInt(math.MinInt64 + int64(word()>>1))
				case 2:
					vals[i] = value.OfInt(1<<62 + int64(word()>>2))
				default:
					s := make([]byte, next()%12)
					for j := range s {
						s[j] = next()
					}
					vals[i] = value.OfString(string(s))
				}
			}
			ts[k] = relation.SortedTuple(payloadCols, vals)
		}
		return ts
	}
	removed := tuples(next() % 4)
	return Commit{Removed: removed, Inserted: tuples(next() % 6)}
}

// FuzzCommitPayload states decode ∘ encode = id on commit payloads, and
// that a payload cut short or damaged is refused with ErrCorrupt, never a
// panic. The input is read twice: as the recipe of a commit to round-trip,
// and as a payload in its own right.
func FuzzCommitPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 5, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{3, 5, 3, 4, 'a', 'b', 'c', 'd', 2, 1, 2, 3, 4, 5, 6, 7, 8, 1, 9, 9, 9, 9, 9, 9, 9, 9, 0, 0x80})
	f.Add([]byte{0, 1, tagStr, 3, 'x', 'y', 'z', tagInt, 0x81, 0x01, tagInt, 0x01})
	f.Add([]byte{0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzCommit(data)
		payload := AppendCommitPayload(nil, c)
		got, err := ReadCommitPayload(payload, payloadCols)
		if err != nil {
			t.Fatalf("round trip of %d+%d tuples: %v", len(c.Removed), len(c.Inserted), err)
		}
		if got.Seq != 0 || !eqTuples(got.Removed, c.Removed) || !eqTuples(got.Inserted, c.Inserted) {
			t.Fatalf("round trip: %+v, want %+v", got, c)
		}
		for n := range payload {
			if _, err := ReadCommitPayload(payload[:n], payloadCols); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("payload cut to %d of %d bytes: %v, want ErrCorrupt", n, len(payload), err)
			}
		}
		damaged := append([]byte(nil), payload...)
		for i := range damaged {
			damaged[i] ^= 0xff
			checkPayload(t, damaged)
			damaged[i] ^= 0xff
		}
		checkPayload(t, data)
	})
}

// checkPayload decodes arbitrary bytes as a payload: they are refused with
// ErrCorrupt, or the commit they decode to encodes to bytes that decode to
// it again (varints may be overlong, so the bytes themselves need not
// come back).
func checkPayload(t *testing.T, b []byte) {
	c, err := ReadCommitPayload(b, payloadCols)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bad payload %x: %v, want ErrCorrupt", b, err)
		}
		return
	}
	again, err := ReadCommitPayload(AppendCommitPayload(nil, c), payloadCols)
	if err != nil || !eqTuples(again.Removed, c.Removed) || !eqTuples(again.Inserted, c.Inserted) {
		t.Fatalf("payload %x decodes to %+v, which re-encodes to %+v, %v", b, c, again, err)
	}
}
