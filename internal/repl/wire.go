// Package repl is the log-shipping replication plane: it ships a durable
// relation's acknowledged commit log to follower processes that serve
// read-only replicas with the full lock-free MVCC query surface.
//
// A Publisher taps core.DurableRelation's acknowledged-delta stream
// (core.SetCommitSink) and assigns each delta a dense replication
// sequence number — one global stream regardless of how many per-shard
// logs the primary writes, so a follower's state is always "the first k
// records", never a partial interleaving. A Follower subscribes over any
// ordered byte stream (net.Conn, or the in-process pipe transport in
// pipe.go), bootstraps from a snapshot when it has no usable prefix,
// replays the tail through the engine's copy-on-write publish path, and
// reconnects with sequence-checked catch-up after a partition.
//
// # Wire protocol
//
// Every message travels in a frame identical in shape to a WAL record:
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// little-endian, CRC over the payload only. The first payload byte is
// the message type:
//
//	0x10 hello      follower→publisher: version, resume sequence,
//	                relation name, column signature
//	0x11 snapBegin  publisher→follower: snapshot covers sequences ≤ seq;
//	                tuple count follows
//	0x12 snapChunk  one wal stream-encoded tuple chunk
//	0x13 snapEnd    snapshot complete
//	0x14 commit     head sequence (for lag), then one wal stream-encoded
//	                commit record carrying its own sequence
//	0x15 error      terminal refusal with a message
//
// Tuple payloads reuse the WAL's stream codec (wal.StreamEncoder /
// StreamDecoder): per-connection incremental string interning shared by
// snapshot chunks and commit records, reset on reconnect.
//
// # Consistency contract
//
// A follower's published state always equals an exact prefix
// records[1..k] of the publisher's history, k ≥ applied. Records are
// applied via the COW publish path in whole same-cell runs — the commit
// frames one read returned are one batch, and consecutive records of it
// bound for one cell share a fork and a publish — so a reader on the
// follower never observes a torn delta or a state between two prefixes,
// and sequence checking makes running ahead or skipping impossible (a
// gap kills the session and catch-up restarts it from the follower's own
// applied count, which advances over exactly the records the engine
// published). docs/REPLICATION.md states the
// contract, the state machine, and the proof obligations; the
// fault-injection harness (internal/faultinject/harness) discharges them
// with a kill at every send/recv/apply/resubscribe step.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Message-type bytes; the first payload byte of every frame.
const (
	msgHello     = 0x10
	msgSnapBegin = 0x11
	msgSnapChunk = 0x12
	msgSnapEnd   = 0x13
	msgCommit    = 0x14
	msgError     = 0x15
)

// protocolVersion is carried in hello; either side refuses a mismatch.
const protocolVersion = 1

// maxFrame bounds a frame's payload. A length prefix beyond it means a
// corrupt or hostile stream, not a large record; the session dies rather
// than allocating.
const maxFrame = 1 << 26

const frameHdrSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame reports a frame whose CRC or length prefix does not
// verify: the stream is corrupt and the session must be abandoned (the
// follower resubscribes; TCP does not deliver torn frames, so unlike a
// log tail there is no benign torn case to discriminate).
var ErrBadFrame = errors.New("repl: corrupt frame")

// readAhead is how far past the frame it is waiting for one Read may reach:
// a follower that has fallen behind finds about this many bytes of commit
// frames per read, which is what it applies as one batch. It bounds the
// batch whatever size a bootstrap chunk grew the buffer to, because a batch
// is also how far the replica's visible state and Applied() may trail the
// records already received; a fork is amortized long before this many.
const readAhead = 4 << 10

// maxWriteBuf is where a publisher stops adding frames to one Write: a long
// catch-up goes out in writes of about this size instead of one buffer as
// large as the retained history. The buffer stays with the session, so it is
// kept to a few reads' worth — a follower's batch is bounded by readAhead,
// not by this.
const maxWriteBuf = 16 << 10

// framer reads and writes CRC-checked frames on one connection. The
// byte counter feeds obs.ReplBytes for the direction this endpoint is
// accountable for: a publisher counts what it sends, a follower what it
// receives. Not safe for concurrent use.
//
// Each endpoint streams in one direction and uses one buffer for it: rbuf
// holds what a Read returned — possibly several frames, which readFrame
// hands out one by one and buffered reports on — and wbuf collects the
// frames appendFrame framed until flush writes them with one Write.
type framer struct {
	rw         io.ReadWriter
	fi         *faultinject.Plane
	met        *obs.Metrics
	countRead  bool
	countWrite bool
	wbuf       []byte
	rbuf       []byte // rbuf[r:w] is received and not yet handed out
	r, w       int
}

func newFramer(rw io.ReadWriter, met *obs.Metrics, countRead, countWrite bool) *framer {
	return &framer{rw: rw, fi: faultinject.Active(), met: met, countRead: countRead, countWrite: countWrite}
}

// writeFrame frames payload and writes it, with anything appendFrame left
// pending before it, in one call.
func (f *framer) writeFrame(payload []byte) error {
	if err := f.appendFrame(payload); err != nil {
		return err
	}
	return f.flush()
}

// appendFrame frames payload behind the frames already pending, for flush to
// write. The injection point fires before the frame joins them, modelling a
// send that never reached the wire; an injected error (or panic, contained
// by the session) kills the connection with the pending frames unsent, and
// the follower's catch-up takes over.
func (f *framer) appendFrame(payload []byte) error {
	if f.fi != nil {
		if err := f.fi.Point("repl.send", true); err != nil {
			return err
		}
	}
	f.wbuf = binary.LittleEndian.AppendUint32(f.wbuf, uint32(len(payload)))
	f.wbuf = binary.LittleEndian.AppendUint32(f.wbuf, crc32.Checksum(payload, castagnoli))
	f.wbuf = append(f.wbuf, payload...)
	return nil
}

// flush writes the pending frames in one call.
func (f *framer) flush() error {
	n := len(f.wbuf)
	_, err := f.rw.Write(f.wbuf)
	f.wbuf = f.wbuf[:0]
	if err != nil {
		return err
	}
	if f.met != nil && f.countWrite {
		f.met.ReplBytes.Add(uint64(n))
	}
	return nil
}

// header decodes the frame header at the front of the received bytes; ok is
// false while fewer than a header's worth have arrived.
func (f *framer) header() (plen int, crc uint32, ok bool, err error) {
	if f.w-f.r < frameHdrSize {
		return 0, 0, false, nil
	}
	n := binary.LittleEndian.Uint32(f.rbuf[f.r:])
	if n == 0 || n > maxFrame {
		return 0, 0, false, fmt.Errorf("%w: payload length %d", ErrBadFrame, n)
	}
	return int(n), binary.LittleEndian.Uint32(f.rbuf[f.r+4:]), true, nil
}

// buffered reports whether readFrame can answer from bytes already
// received, without touching the connection, and if so the message type the
// frame claims (its CRC is checked by the readFrame that takes it).
func (f *framer) buffered() (msgType byte, ok bool) {
	plen, _, ok, err := f.header()
	if err != nil {
		return 0, true // readFrame reports it
	}
	if !ok || f.w-f.r < frameHdrSize+plen {
		return 0, false
	}
	return f.rbuf[f.r+frameHdrSize], true
}

// readFrame hands out the next frame, reading from the connection only when
// no complete frame is already buffered, and verifies its CRC. The injection
// point fires after the frame arrived and before it is trusted, so a fault
// here models a receive lost between wire and apply. The returned slice is
// valid until the next readFrame.
func (f *framer) readFrame() ([]byte, error) {
	for {
		plen, want, ok, err := f.header()
		if err != nil {
			return nil, err
		}
		need := frameHdrSize + plen // plen is 0 until the header is in
		if ok && f.w-f.r >= need {
			payload := f.rbuf[f.r+frameHdrSize : f.r+need]
			f.r += need
			if crc32.Checksum(payload, castagnoli) != want {
				return nil, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
			}
			if f.fi != nil {
				if err := f.fi.Point("repl.recv", true); err != nil {
					return nil, err
				}
			}
			if f.met != nil && f.countRead {
				f.met.ReplBytes.Add(uint64(need))
			}
			return payload, nil
		}
		if err := f.fill(need); err != nil {
			return nil, err
		}
	}
}

// fill reads once from the connection behind the received bytes — the rest
// of the frame of need bytes at their front and at most readAhead beyond it
// — first making room for that frame in the buffer.
func (f *framer) fill(need int) error {
	if f.r > 0 && (f.r == f.w || len(f.rbuf)-f.r < need) {
		f.w = copy(f.rbuf, f.rbuf[f.r:f.w])
		f.r = 0
	}
	if len(f.rbuf) < need {
		grown := make([]byte, max(need, readAhead))
		copy(grown, f.rbuf[:f.w])
		f.rbuf = grown
	}
	n, err := f.rw.Read(f.rbuf[f.w:min(len(f.rbuf), f.r+need+readAhead)])
	f.w += n
	if n > 0 {
		return nil // a sticky error comes back on the read after this one
	}
	if err == io.EOF && f.w > f.r {
		return io.ErrUnexpectedEOF
	}
	return err
}

// hello is the subscription request.
type hello struct {
	version uint64
	resume  uint64 // first sequence number wanted; applied+1
	name    string
	cols    []string // "name:type" per column, in declaration order
}

func appendHello(b []byte, h hello) []byte {
	b = append(b, msgHello)
	b = binary.AppendUvarint(b, h.version)
	b = binary.AppendUvarint(b, h.resume)
	b = appendString(b, h.name)
	b = binary.AppendUvarint(b, uint64(len(h.cols)))
	for _, c := range h.cols {
		b = appendString(b, c)
	}
	return b
}

func parseHello(payload []byte) (hello, error) {
	r := &wireReader{b: payload[1:]}
	var h hello
	var err error
	if h.version, err = r.uvarint(); err != nil {
		return h, err
	}
	if h.resume, err = r.uvarint(); err != nil {
		return h, err
	}
	if h.name, err = r.str(); err != nil {
		return h, err
	}
	n, err := r.uvarint()
	if err != nil {
		return h, err
	}
	h.cols = make([]string, n)
	for i := range h.cols {
		if h.cols[i], err = r.str(); err != nil {
			return h, err
		}
	}
	return h, r.done()
}

func appendSnapBegin(b []byte, seq, tuples uint64) []byte {
	b = append(b, msgSnapBegin)
	b = binary.AppendUvarint(b, seq)
	return binary.AppendUvarint(b, tuples)
}

func parseSnapBegin(payload []byte) (seq, tuples uint64, err error) {
	r := &wireReader{b: payload[1:]}
	if seq, err = r.uvarint(); err != nil {
		return 0, 0, err
	}
	if tuples, err = r.uvarint(); err != nil {
		return 0, 0, err
	}
	return seq, tuples, r.done()
}

func appendCommitMsg(b []byte, head uint64) []byte {
	b = append(b, msgCommit)
	return binary.AppendUvarint(b, head)
}

// parseCommitHead splits a commit message into the head sequence and the
// wal-encoded commit payload that follows it.
func parseCommitHead(payload []byte) (head uint64, rest []byte, err error) {
	head, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated head sequence", ErrBadFrame)
	}
	return head, payload[1+n:], nil
}

func appendErrorMsg(b []byte, msg string) []byte {
	return appendString(append(b, msgError), msg)
}

func parseErrorMsg(payload []byte) string {
	r := &wireReader{b: payload[1:]}
	s, err := r.str()
	if err != nil {
		return "unreadable error message"
	}
	return s
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// wireReader is a bounds-checked cursor over one payload.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrBadFrame)
	}
	r.off += n
	return v, nil
}

func (r *wireReader) str() (string, error) {
	ln, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if ln > uint64(len(r.b)-r.off) {
		return "", fmt.Errorf("%w: string runs past payload end", ErrBadFrame)
	}
	s := string(r.b[r.off : r.off+int(ln)])
	r.off += int(ln)
	return s, nil
}

func (r *wireReader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(r.b)-r.off)
	}
	return nil
}
