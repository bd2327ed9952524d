package wal

import (
	"encoding/binary"
	"fmt"
	"slices"

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

// A PayloadDecoder decodes the commit payloads AppendCommitPayload wrote
// for one relation. The commit Read returns is a view: its tuples and
// values live in storage the decoder reuses, so it is valid until the next
// Read; clone it (Commit.Clone) to keep it. A decoder lives as long as a
// replication session, so it keeps storage for records of up to
// keepValues values only: a larger record is decoded into storage the
// decoder then forgets, and it is garbage once the caller lets go of it.
// Not safe for concurrent use.
type PayloadDecoder struct {
	cols []string
	view
}

// keepValues bounds the values slab a PayloadDecoder keeps between reads
// (24 KiB, and the tuple slice beside it): a commit of a few tuples reuses
// it, and a batch insert of thousands, which would pin its slab for the
// rest of the session, does not.
const keepValues = 1 << 10

// NewPayloadDecoder returns a decoder for a relation whose sorted column
// names are cols. Every decoded tuple aliases cols, which the caller must
// leave unmodified.
func NewPayloadDecoder(cols []string) *PayloadDecoder { return &PayloadDecoder{cols: cols} }

// Read decodes one payload into the decoder's view: a view valid until the
// next call; clone to keep. The commit's Seq is zero. Failures wrap
// ErrCorrupt.
func (d *PayloadDecoder) Read(payload []byte) (Commit, error) {
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
	w := uint64(len(d.cols))
	left := uint64(len(r.b) - r.off)
	if nr > left || ni > left || (nr+ni)*2*w > left {
		return Commit{}, fmt.Errorf("%w: %d+%d tuples of %d columns run past payload end", ErrCorrupt, nr, ni, w)
	}
	d.reset()
	d.ts = slices.Grow(d.ts, int(nr+ni))
	for k := nr + ni; k > 0; k-- {
		tv := d.carve(w, k*w)
		for i := range tv {
			if tv[i], err = r.value(); err != nil {
				return Commit{}, err
			}
		}
		d.ts = append(d.ts, relation.SortedTuple(d.cols, tv))
	}
	if r.off != len(payload) {
		return Commit{}, fmt.Errorf("%w: %d trailing bytes in commit payload", ErrCorrupt, len(payload)-r.off)
	}
	c := d.record(int(nr))
	if cap(d.vals) > keepValues {
		d.view = view{}
	}
	return c, nil
}

// ReadCommitPayload decodes one payload for a relation whose sorted column
// names are cols into storage of its own: a fresh decoder's Read, whose
// commit the caller may keep.
func ReadCommitPayload(payload []byte, cols []string) (Commit, error) {
	return NewPayloadDecoder(cols).Read(payload)
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
