package wal

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/relation"
	"repro/internal/value"
)

// A Commit is the logical delta of one engine-level write operation: the
// full tuples it removed and the full tuples it inserted, in apply order.
// An insert logs {Inserted: [t]}, a pattern remove logs every removed
// tuple, and an update logs the old tuple removed and the merged tuple
// inserted. Seq is assigned by the log on append.
type Commit struct {
	Seq      uint64
	Removed  []relation.Tuple
	Inserted []relation.Tuple
}

// Record-type bytes; the first payload byte of every frame.
const (
	recCommit = 0x01 // a Commit in a log file
	recChunk  = 0x02 // a tuple chunk in a snapshot file
)

// Value-tag bytes inside an encoded tuple binding.
const (
	tagInt = 0x00 // zigzag-varint int64
	tagStr = 0x01 // dictionary id
)

// encoder interns strings incrementally for one file: the first record
// using a string carries it in full in its dictionary section and every
// later reference is a dense integer id. The pending list holds the
// entries introduced by the record currently being encoded, so a failed
// append can roll the dictionary back (the entries were never durably
// written) and a successful one can keep it.
type encoder struct {
	dict    map[string]uint64
	next    uint64
	pending []string
	scratch []byte

	// The column names of the tuple encoded last, and their ids. Every tuple
	// of a relation carries the same sorted columns, so a tuple whose names
	// match takes its column ids from here instead of interning each name
	// again; the decoder's cols/colIDs are the mirror image.
	cols   []string
	colIDs []uint64
}

func newEncoder() *encoder {
	return &encoder{dict: make(map[string]uint64)}
}

// seed preloads the dictionary in id order — the state a scan of the
// existing file left behind — so appends continue the interning stream.
func (e *encoder) seed(entries []string) {
	for _, s := range entries {
		e.dict[s] = e.next
		e.next++
	}
}

func (e *encoder) intern(s string) uint64 {
	if id, ok := e.dict[s]; ok {
		return id
	}
	id := e.next
	e.dict[s] = id
	e.next++
	e.pending = append(e.pending, s)
	return id
}

// commit keeps the pending dictionary entries: the record carrying them
// reached the file.
func (e *encoder) commit() { e.pending = e.pending[:0] }

// abort rolls back the pending entries: the record carrying them was not
// written (or was erased by truncation after a failed write). The column-id
// cache goes with them: its ids may name the entries just rolled back.
func (e *encoder) abort() {
	for _, s := range e.pending {
		delete(e.dict, s)
	}
	e.next -= uint64(len(e.pending))
	e.pending = e.pending[:0]
	e.cols, e.colIDs = e.cols[:0], e.colIDs[:0]
}

// appendTuple encodes t as its column count, then column id, value tag and
// value per column. On a column set the cache misses, names and values are
// interned in column order, so the ids and dictionary sections are the
// same bytes whether the cache hits or not.
func (e *encoder) appendTuple(b []byte, t relation.Tuple) []byte {
	names := t.Dom().Names()
	hit := slices.Equal(names, e.cols)
	if !hit {
		e.cols, e.colIDs = append(e.cols[:0], names...), e.colIDs[:0]
	}
	b = binary.AppendUvarint(b, uint64(len(names)))
	for i, col := range names {
		if !hit {
			e.colIDs = append(e.colIDs, e.intern(col))
		}
		b = binary.AppendUvarint(b, e.colIDs[i])
		v := t.ValueAt(i)
		if v.Kind() == value.String {
			b = append(b, tagStr)
			b = binary.AppendUvarint(b, e.intern(v.Str()))
		} else {
			b = append(b, tagInt)
			b = binary.AppendUvarint(b, zigzag(v.Int()))
		}
	}
	return b
}

// appendCommit encodes c as one record payload. The tuple body is built
// first (interning as it goes), then the payload is assembled as
// type | seq | new-dictionary entries | body, so a reader always sees a
// string's definition before its first use.
func (e *encoder) appendCommit(b []byte, c Commit) []byte {
	body := e.scratch[:0]
	body = binary.AppendUvarint(body, uint64(len(c.Removed)))
	for _, t := range c.Removed {
		body = e.appendTuple(body, t)
	}
	body = binary.AppendUvarint(body, uint64(len(c.Inserted)))
	for _, t := range c.Inserted {
		body = e.appendTuple(body, t)
	}
	e.scratch = body

	b = append(b, recCommit)
	b = binary.AppendUvarint(b, c.Seq)
	b = e.appendDict(b)
	return append(b, body...)
}

// appendChunk encodes one snapshot chunk payload, same layout as a commit
// but with a bare tuple list.
func (e *encoder) appendChunk(b []byte, tuples []relation.Tuple) []byte {
	body := e.scratch[:0]
	body = binary.AppendUvarint(body, uint64(len(tuples)))
	for _, t := range tuples {
		body = e.appendTuple(body, t)
	}
	e.scratch = body

	b = append(b, recChunk)
	b = e.appendDict(b)
	return append(b, body...)
}

func (e *encoder) appendDict(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(e.pending)))
	for _, s := range e.pending {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// decoder mirrors the encoder: it accumulates the dictionary as records
// define entries, and its final state seeds the encoder when the file is
// reopened for append.
type decoder struct {
	dict []string

	// The column ids of the tuple decoded last, and their names. Every
	// tuple of a relation carries the same sorted columns, so a tuple whose
	// ids repeat shares the cols slice instead of allocating its own; the
	// slice is frozen from the moment the first tuple aliases it.
	colIDs []uint64
	cols   []string
}

type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("%w: truncated payload", ErrCorrupt)
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *byteReader) take(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("%w: string runs past payload end", ErrCorrupt)
	}
	s := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return s, nil
}

func (d *decoder) readDict(r *byteReader) error {
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		ln, err := r.uvarint()
		if err != nil {
			return err
		}
		s, err := r.take(ln)
		if err != nil {
			return err
		}
		d.dict = append(d.dict, string(s))
	}
	return nil
}

func (d *decoder) lookup(id uint64) (string, error) {
	if id >= uint64(len(d.dict)) {
		return "", fmt.Errorf("%w: dictionary id %d out of range (%d entries)", ErrCorrupt, id, len(d.dict))
	}
	return d.dict[id], nil
}

// readTuple decodes one tuple, its values carved from *slab; rest is how
// many tuples of the list are left, this one included, so that an empty
// slab is refilled with room for all of them at this tuple's width.
func (d *decoder) readTuple(r *byteReader, slab *[]value.Value, rest uint64) (relation.Tuple, error) {
	n, err := r.uvarint()
	if err != nil {
		return relation.Tuple{}, err
	}
	// Every value takes at least three bytes (column id, tag, value), which
	// bounds both this tuple and the values still to come.
	left := uint64(len(r.b)-r.off) / 3
	if n > left {
		return relation.Tuple{}, fmt.Errorf("%w: tuple of %d columns runs past payload end", ErrCorrupt, n)
	}
	// cols and ids alias the remembered column set until an id departs from
	// it; from there on they are this tuple's own, and become the set the
	// next tuple is compared with.
	cols, ids := d.cols, d.colIDs
	shared := uint64(len(ids)) == n
	if !shared {
		cols, ids = make([]string, n), make([]uint64, n)
	}
	s := *slab
	if uint64(cap(s)-len(s)) < n {
		s = make([]value.Value, 0, min(n*rest, left))
	}
	vals := s[len(s) : len(s)+int(n) : len(s)+int(n)]
	*slab = s[:len(s)+int(n)]
	for i := uint64(0); i < n; i++ {
		id, err := r.uvarint()
		if err != nil {
			return relation.Tuple{}, err
		}
		if shared && id != ids[i] {
			// Keep the prefix that did match, own the rest.
			shared = false
			cols = append(make([]string, 0, n), cols[:i]...)[:n]
			ids = append(make([]uint64, 0, n), ids[:i]...)[:n]
		}
		if !shared {
			ids[i] = id
			if cols[i], err = d.lookup(id); err != nil {
				return relation.Tuple{}, err
			}
			if i > 0 && cols[i-1] >= cols[i] {
				return relation.Tuple{}, fmt.Errorf("%w: tuple columns not strictly sorted", ErrCorrupt)
			}
		}
		tag, err := r.byte()
		if err != nil {
			return relation.Tuple{}, err
		}
		switch tag {
		case tagInt:
			u, err := r.uvarint()
			if err != nil {
				return relation.Tuple{}, err
			}
			vals[i] = value.OfInt(unzigzag(u))
		case tagStr:
			sid, err := r.uvarint()
			if err != nil {
				return relation.Tuple{}, err
			}
			s, err := d.lookup(sid)
			if err != nil {
				return relation.Tuple{}, err
			}
			vals[i] = value.OfString(s)
		default:
			return relation.Tuple{}, fmt.Errorf("%w: unknown value tag 0x%02x", ErrCorrupt, tag)
		}
	}
	d.cols, d.colIDs = cols, ids
	return relation.SortedTuple(cols, vals), nil
}

// readTuples decodes a tuple list. The values of all its tuples share one
// allocation (a tuple aliases its part of it), not one per tuple.
func (d *decoder) readTuples(r *byteReader) ([]relation.Tuple, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("%w: %d tuples run past payload end", ErrCorrupt, n)
	}
	ts := make([]relation.Tuple, 0, n)
	var slab []value.Value
	for i := uint64(0); i < n; i++ {
		t, err := d.readTuple(r, &slab, n-i)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// readCommit decodes one commit payload (the frame's CRC has already been
// verified, so every failure here is in-place corruption, not a torn
// write).
func (d *decoder) readCommit(payload []byte) (Commit, error) {
	r := &byteReader{b: payload}
	typ, err := r.byte()
	if err != nil {
		return Commit{}, err
	}
	if typ != recCommit {
		return Commit{}, fmt.Errorf("%w: record type 0x%02x where a commit was expected", ErrCorrupt, typ)
	}
	var c Commit
	if c.Seq, err = r.uvarint(); err != nil {
		return Commit{}, err
	}
	if err := d.readDict(r); err != nil {
		return Commit{}, err
	}
	if c.Removed, err = d.readTuples(r); err != nil {
		return Commit{}, err
	}
	if c.Inserted, err = d.readTuples(r); err != nil {
		return Commit{}, err
	}
	if r.off != len(payload) {
		return Commit{}, fmt.Errorf("%w: %d trailing bytes in commit payload", ErrCorrupt, len(payload)-r.off)
	}
	return c, nil
}

// readChunk decodes one snapshot chunk payload.
func (d *decoder) readChunk(payload []byte) ([]relation.Tuple, error) {
	r := &byteReader{b: payload}
	typ, err := r.byte()
	if err != nil {
		return nil, err
	}
	if typ != recChunk {
		return nil, fmt.Errorf("%w: record type 0x%02x where a snapshot chunk was expected", ErrCorrupt, typ)
	}
	if err := d.readDict(r); err != nil {
		return nil, err
	}
	ts, err := d.readTuples(r)
	if err != nil {
		return nil, err
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes in chunk payload", ErrCorrupt, len(payload)-r.off)
	}
	return ts, nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
