package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/relation"
	"repro/internal/value"
)

// Commit payloads: the positional encoding a replication stream keeps and
// ships a commit in. Unlike a log record it carries no sequence number, no
// column names and no dictionary — both ends already agree on the
// relation's columns, and every tuple of a commit binds all of them — so a
// payload is self-contained: it decodes on its own, whatever was sent
// before it, and can be retained once and resent as is to any number of
// streams. The layout is
//
//	uvarint removed count | uvarint inserted count | removed tuples | inserted tuples
//
// and a tuple is one tag and one value per column, in the relation's
// sorted column order: tagInt and a zigzag varint, or tagStr, a uvarint
// length and the string's bytes.

// AppendCommitPayload appends c's removed and inserted tuples to b as a
// commit payload; c.Seq is not part of it. Every tuple must bind exactly
// the relation's columns, as every tuple of an acknowledged commit does:
// the payload records values by position only.
func AppendCommitPayload(b []byte, c Commit) []byte {
	b = binary.AppendUvarint(b, uint64(len(c.Removed)))
	b = binary.AppendUvarint(b, uint64(len(c.Inserted)))
	b = appendPositional(b, c.Removed)
	return appendPositional(b, c.Inserted)
}

func appendPositional(b []byte, ts []relation.Tuple) []byte {
	for _, t := range ts {
		for i := range t.Len() {
			v := t.ValueAt(i)
			if v.Kind() == value.String {
				s := v.Str()
				b = append(b, tagStr)
				b = binary.AppendUvarint(b, uint64(len(s)))
				b = append(b, s...)
			} else {
				b = append(b, tagInt)
				b = binary.AppendUvarint(b, zigzag(v.Int()))
			}
		}
	}
	return b
}

// ReadCommitPayload decodes a payload AppendCommitPayload wrote for a
// relation whose sorted column names are cols. The tuples alias cols,
// which the caller must leave unmodified, and share one values slab. The
// returned commit's Seq is zero. Failures wrap ErrCorrupt.
func ReadCommitPayload(payload []byte, cols []string) (Commit, error) {
	r := &byteReader{b: payload}
	nr, err := r.uvarint()
	if err != nil {
		return Commit{}, err
	}
	ni, err := r.uvarint()
	if err != nil {
		return Commit{}, err
	}
	// A value takes at least two bytes (tag, one-byte value), so the
	// counts are bounded by what is left before anything is allocated.
	w := uint64(len(cols))
	left := uint64(len(r.b) - r.off)
	if nr > left || ni > left || (nr+ni)*2*w > left {
		return Commit{}, fmt.Errorf("%w: %d+%d tuples of %d columns run past payload end", ErrCorrupt, nr, ni, w)
	}
	ts := make([]relation.Tuple, nr+ni)
	vals := make([]value.Value, (nr+ni)*w)
	for k := range ts {
		tv := vals[uint64(k)*w : uint64(k+1)*w : uint64(k+1)*w]
		for i := range tv {
			if tv[i], err = r.value(); err != nil {
				return Commit{}, err
			}
		}
		ts[k] = relation.SortedTuple(cols, tv)
	}
	if r.off != len(payload) {
		return Commit{}, fmt.Errorf("%w: %d trailing bytes in commit payload", ErrCorrupt, len(payload)-r.off)
	}
	return Commit{Removed: ts[:nr:nr], Inserted: ts[nr:]}, nil
}

// value decodes one tagged value with its string inline.
func (r *byteReader) value() (value.Value, error) {
	tag, err := r.byte()
	if err != nil {
		return value.Value{}, err
	}
	switch tag {
	case tagInt:
		u, err := r.uvarint()
		if err != nil {
			return value.Value{}, err
		}
		return value.OfInt(unzigzag(u)), nil
	case tagStr:
		n, err := r.uvarint()
		if err != nil {
			return value.Value{}, err
		}
		s, err := r.take(n)
		if err != nil {
			return value.Value{}, err
		}
		return value.OfString(string(s)), nil
	default:
		return value.Value{}, fmt.Errorf("%w: unknown value tag 0x%02x", ErrCorrupt, tag)
	}
}
