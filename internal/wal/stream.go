package wal

import "repro/internal/relation"

// Stream codec: the log-file record encoding (incremental string
// interning, varint tuples — see encode.go) exported for byte streams
// that are not files: the replication wire's snapshot chunks, and the
// benchmark's encode probe. (A replicated commit travels as a
// self-contained payload instead; see commitpayload.go.) A
// StreamEncoder/StreamDecoder pair shares one interning dictionary for
// the lifetime of the stream, exactly as a log file's appends share the
// file's dictionary: the first payload using a string carries it in
// full, every later payload references it by dense id. Both commit and
// chunk payloads advance the same dictionary, so the two sides must
// encode and decode the same payloads in the same order — which a
// single ordered connection guarantees, and a reconnect restarts with a
// fresh pair.

// StreamEncoder encodes commits and tuple chunks for one ordered byte
// stream. Not safe for concurrent use; one per connection.
type StreamEncoder struct {
	enc *encoder
}

// NewStreamEncoder returns an encoder with an empty dictionary.
func NewStreamEncoder() *StreamEncoder {
	return &StreamEncoder{enc: newEncoder()}
}

// AppendCommit appends c's record payload to b — the same bytes
// Log.Append would frame — and commits the dictionary entries the
// payload introduced (a stream has no truncation path, so there is
// nothing to roll back).
func (e *StreamEncoder) AppendCommit(b []byte, c Commit) []byte {
	b = e.enc.appendCommit(b, c)
	e.enc.commit()
	return b
}

// AppendChunk appends a snapshot-chunk payload holding ts to b.
func (e *StreamEncoder) AppendChunk(b []byte, ts []relation.Tuple) []byte {
	b = e.enc.appendChunk(b, ts)
	e.enc.commit()
	return b
}

// StreamDecoder decodes the payloads a StreamEncoder produced, in
// order. Not safe for concurrent use; one per connection.
type StreamDecoder struct {
	dec decoder
}

// NewStreamDecoder returns a decoder with an empty dictionary.
func NewStreamDecoder() *StreamDecoder {
	return &StreamDecoder{}
}

// ReadChunk decodes one snapshot-chunk payload. Failures wrap ErrCorrupt:
// the framing CRC already held, so a bad payload means the stream is
// corrupt, not torn.
func (d *StreamDecoder) ReadChunk(payload []byte) ([]relation.Tuple, error) {
	return d.dec.readChunk(payload)
}
