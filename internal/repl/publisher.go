package repl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/wal"
)

// ErrPublisherClosed is returned by operations on a closed Publisher.
var ErrPublisherClosed = errors.New("repl: publisher is closed")

// snapChunkTuples is how many tuples one snapshot-chunk frame carries,
// matching the WAL's snapshot writer.
const snapChunkTuples = 4096

// windowBlock is the size of the blocks the retained window keeps its
// payloads in. A block fills front to back and no record spans two, so
// growing the window never copies what it already holds; a record larger
// than a block gets a block of its own.
const windowBlock = 64 << 10

// DefaultRetain is how many acknowledged records a Publisher keeps in
// memory for follower catch-up before compacting; a follower needing an
// older record bootstraps from a fresh snapshot instead.
const DefaultRetain = 1024

// PublisherOptions configures NewPublisher.
type PublisherOptions struct {
	// Retain bounds the in-memory catch-up history (default
	// DefaultRetain). A follower whose resume point has been compacted
	// away — brand new, or partitioned for longer than Retain writes —
	// is served a full snapshot instead of the missing records.
	Retain int

	// Metrics receives the publisher-side replication counters:
	// repl.records and repl.bytes sent, repl.snapshots served.
	Metrics *obs.Metrics
}

// Publisher ships a durable relation's acknowledged commit log to any
// number of subscribed followers. It taps the relation's commit stream
// (core.SetCommitSink), assigns each acknowledged delta one dense
// replication sequence number, and retains a bounded history, so every
// subscription can be answered either by streaming retained records from
// the follower's resume point or by a snapshot of the relation's own
// published versions pinned at an exact sequence number
// (core.DurableRelation.Pin). It keeps no copy of the state: what it adds
// to a commit is proportional to the delta, whatever the table holds. All
// methods are safe for concurrent use.
//
// Lock order: cell writer mutexes, then mu. The sink runs with a cell
// mutex held and takes mu; a pin takes every cell mutex and then mu.
// Nothing takes a cell mutex while holding mu.
type Publisher struct {
	d    *core.DurableRelation
	name string
	cols []string // the hello signature
	// sorted is the relation's column names in sorted order: the order a
	// retained payload holds each tuple's values in.
	sorted []string
	met    *obs.Metrics

	mu   sync.Mutex
	cond *sync.Cond
	head uint64 // sequence of the newest acknowledged record
	base uint64 // the window holds sequences base+1 .. head
	// The retained window holds each record as the payload it is sent in
	// (wal.AppendCommitPayload), back to back in an arena of blocks
	// addressed by offsets that only grow: record i runs from offs[i] to
	// offs[i+1], the newest one to end. offs[lo:] are the retained
	// records. Compaction advances lo one record per commit, drops each
	// block once no retained record lies in it (keeping one as spare, for
	// the next block) and slides offs back to the front of its slice once
	// the dead prefix is as long as the window, so a commit costs O(1)
	// amortised however large the window is and, once the window is full,
	// allocates nothing.
	blocks  []block // oldest first, covering blocks[0].base .. end
	end     int
	spare   []byte
	scratch []byte // the payload being encoded
	offs    []int
	lo      int
	retain  int
	conns   map[io.Closer]struct{}
	closed  bool
}

// block is one block of the window's arena; b[0] is at offset base.
type block struct {
	base int
	b    []byte
}

// NewPublisher attaches a publisher to d. The returned publisher owns
// d's commit sink until Close. Sequence 1 is the attach-time state of
// the relation (possibly empty) — never a delta — so a fresh follower,
// whose applied count of 0 means "I hold the empty relation", always
// bootstraps through a snapshot; deltas acknowledged after NewPublisher
// returns are numbered from 2. Sequence numbers are publisher-
// incarnation scoped: a follower must not resume a subscription from one
// incarnation against another (the primary's durable state survives
// restarts, the stream numbering does not).
func NewPublisher(d *core.DurableRelation, opts PublisherOptions) (*Publisher, error) {
	spec := d.Spec()
	p := &Publisher{
		d:      d,
		name:   spec.Name,
		cols:   spec.Signature(),
		sorted: spec.Cols().Names(),
		met:    opts.Metrics,
		retain: opts.Retain,
		conns:  make(map[io.Closer]struct{}),
		// The attach state is sequence 1; base == head means no retained
		// records, and resume == 1 is always <= base, forcing bootstrap.
		head: 1,
		base: 1,
	}
	if p.retain <= 0 {
		p.retain = DefaultRetain
	}
	p.cond = sync.NewCond(&p.mu)
	if err := d.SetCommitSink(p.onCommit); err != nil {
		return nil, err
	}
	return p, nil
}

// onCommit is the core.CommitSink: it runs on the writer's critical path
// with the mutating cell's writer mutex held, so per cell it observes
// deltas in WAL order; the publisher mutex serializes cells into the one
// replication stream. It stamps the sequence number, encodes the delta once
// onto the end of the retained window and wakes the sessions; it touches
// no stored tuple and keeps none of the writer's.
func (p *Publisher) onCommit(c wal.Commit) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.head++
	p.scratch = wal.AppendCommitPayload(p.scratch[:0], c)
	p.keep(p.scratch)
	if cap(p.scratch) > windowBlock {
		p.scratch = nil // a bulk load's buffer is not worth keeping
	}
	if len(p.offs)-p.lo > p.retain {
		p.lo++
		p.base++
		for len(p.blocks) > 1 && p.blocks[1].base <= p.offs[p.lo] {
			if cap(p.blocks[0].b) == windowBlock {
				p.spare = p.blocks[0].b[:0]
			}
			n := copy(p.blocks, p.blocks[1:])
			p.blocks[n] = block{}
			p.blocks = p.blocks[:n]
		}
		if p.lo >= p.retain {
			p.offs = p.offs[:copy(p.offs, p.offs[p.lo:])]
			p.lo = 0
		}
	}
	p.cond.Broadcast()
}

// keep appends a record's payload to the window, in the newest block if it
// fits there and in a new one if not.
func (p *Publisher) keep(payload []byte) {
	n := len(p.blocks)
	if n == 0 || cap(p.blocks[n-1].b)-len(p.blocks[n-1].b) < len(payload) {
		b := p.spare
		if b == nil || len(payload) > windowBlock {
			b = make([]byte, 0, max(windowBlock, len(payload)))
		} else {
			p.spare = nil
		}
		p.blocks = append(p.blocks, block{base: p.end, b: b})
		n++
	}
	p.blocks[n-1].b = append(p.blocks[n-1].b, payload...)
	p.offs = append(p.offs, p.end)
	p.end += len(payload)
}

// record returns retained record i's payload (an index into offs, not a
// sequence number). Callers hold mu.
func (p *Publisher) record(i int) []byte {
	start, end := p.offs[i], p.end
	if i+1 < len(p.offs) {
		end = p.offs[i+1]
	}
	k := sort.Search(len(p.blocks), func(k int) bool { return p.blocks[k].base > start }) - 1
	b := p.blocks[k]
	return b.b[start-b.base : end-b.base]
}

// Head returns the sequence number of the newest acknowledged record.
func (p *Publisher) Head() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.head
}

// History returns the retained record window: every kept record, whose
// sequences run base+1 through Head, decoded from the bytes it is kept
// and sent in. Tests use it as the oracle of acknowledged history; set
// Retain high enough that nothing compacts.
func (p *Publisher) History() (base uint64, commits []wal.Commit) {
	p.mu.Lock()
	defer p.mu.Unlock()
	commits = make([]wal.Commit, 0, len(p.offs)-p.lo)
	for i := p.lo; i < len(p.offs); i++ {
		seq := p.base + 1 + uint64(i-p.lo)
		c, err := wal.ReadCommitPayload(p.record(i), p.sorted)
		if err != nil {
			panic(fmt.Sprintf("repl: retained record %d does not decode: %v", seq, err))
		}
		c.Seq = seq
		commits = append(commits, c)
	}
	return p.base, commits
}

// Serve accepts subscriptions from ln until the listener or the
// publisher closes, one goroutine per connection.
func (p *Publisher) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go p.Handle(conn)
	}
}

// Handle runs one subscription session on rw and returns why it ended.
// It owns rw and closes it. Safe to run concurrently with other
// sessions, writers, and Close; panics (including injected kill-points)
// are contained and end the session like an error, modelling a dropped
// connection that the follower's catch-up must absorb.
func (p *Publisher) Handle(rw io.ReadWriteCloser) (err error) {
	defer rw.Close()
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("repl: publisher session panic: %v", rec)
		}
	}()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPublisherClosed
	}
	p.conns[rw] = struct{}{}
	p.mu.Unlock()
	dead := false
	defer func() {
		p.mu.Lock()
		delete(p.conns, rw)
		p.mu.Unlock()
	}()
	// A follower sends nothing after hello; a read unblocking means the
	// peer hung up (or broke protocol). Either way the session is over —
	// flag it and wake the send loop out of its wait.
	watch := func() {
		var one [1]byte
		rw.Read(one[:])
		p.mu.Lock()
		dead = true
		p.mu.Unlock()
		p.cond.Broadcast()
	}

	f := newFramer(rw, p.met, false, true)
	refuse := func(msg string) error {
		f.writeFrame(appendErrorMsg(nil, msg))
		return fmt.Errorf("repl: refused subscription: %s", msg)
	}

	payload, err := f.readFrame()
	if err != nil {
		return err
	}
	if len(payload) == 0 || payload[0] != msgHello {
		return refuse("expected hello")
	}
	h, err := parseHello(payload)
	if err != nil {
		return refuse(err.Error())
	}
	if h.version != protocolVersion {
		return refuse(fmt.Sprintf("protocol version %d, this publisher speaks %d", h.version, protocolVersion))
	}
	if h.name != p.name {
		return refuse(fmt.Sprintf("relation %q, this publisher serves %q", h.name, p.name))
	}
	if !slices.Equal(h.cols, p.cols) {
		return refuse(fmt.Sprintf("columns %v, this publisher serves %v", h.cols, p.cols))
	}
	if h.resume == 0 {
		return refuse("resume sequence 0: sequences are 1-based")
	}

	// Decide snapshot versus tail under the lock, then let go of it: a pin
	// takes the cell mutexes, which come before mu in the lock order.
	p.mu.Lock()
	head, base := p.head, p.base
	p.mu.Unlock()
	if h.resume > head+1 {
		// The never-ahead half of the contract: a follower claiming
		// records this publisher never acknowledged is from another
		// incarnation and must not be silently rewound.
		return refuse(fmt.Sprintf("resume %d is ahead of acknowledged head %d: follower belongs to another publisher incarnation", h.resume, head))
	}

	go watch()
	next := h.resume
	if h.resume <= base {
		// Resume point compacted away (or fresh follower): bootstrap from
		// the relation's own versions, pinned at exactly snapSeq. The head
		// is read inside the pin's fence, where no commit is between its
		// publish and onCommit, so the versions are the state after records
		// [1..snapSeq] and the tail resumes at snapSeq+1. Writers wait for
		// the pin — a lock and a pointer load per cell — not for the send.
		var snapSeq uint64
		versions, err := p.d.Pin(func() {
			p.mu.Lock()
			snapSeq = p.head
			p.mu.Unlock()
		})
		if err != nil {
			return refuse(err.Error())
		}
		if err := p.sendSnapshot(f, snapSeq, versions); err != nil {
			return err
		}
		next = snapSeq + 1
	}

	// The send loop: stream every record from next on, waiting for new
	// acknowledgements when caught up. Each pass copies about one write's
	// worth of retained payloads out under the lock and frames them
	// outside it, so a long catch-up goes out in several passes.
	var raw []byte // payloads of the records next, next+1, ...
	var ends []int // ends[k] is where record next+k's payload ends in raw
	var hdr []byte
	for {
		p.mu.Lock()
		for !p.closed && !dead && next > p.head {
			p.cond.Wait()
		}
		switch {
		case p.closed:
			p.mu.Unlock()
			return ErrPublisherClosed
		case dead:
			p.mu.Unlock()
			return fmt.Errorf("repl: follower hung up")
		case next <= p.base:
			// Compaction overtook this session — the follower reads too
			// slowly for the retained window. End the session; on
			// resubscribe it gets a fresh snapshot.
			base := p.base
			p.mu.Unlock()
			return refuse(fmt.Sprintf("resume %d compacted away (history starts at %d): follower too slow, resubscribe for a snapshot", next, base+1))
		}
		raw, ends = raw[:0], ends[:0]
		for i := p.lo + int(next-p.base-1); i < len(p.offs) && len(raw) < maxWriteBuf; i++ {
			raw = append(raw, p.record(i)...)
			ends = append(ends, len(raw))
		}
		head := p.head
		p.mu.Unlock()

		// The pass goes out in one Write, so a follower that is behind
		// finds many frames per read.
		start := 0
		for k, end := range ends {
			hdr = appendCommitHdr(hdr[:0], head, next+uint64(k))
			if err := f.appendFrame(hdr, raw[start:end]); err != nil {
				return err
			}
			start = end
		}
		if err := f.flush(); err != nil {
			return err
		}
		if p.met != nil {
			p.met.ReplRecords.Add(uint64(len(ends)))
		}
		next += uint64(len(ends))
	}
}

// sendSnapshot streams the pinned versions, cell by cell, as one snapshot
// covering sequences ≤ seq. Each version is scanned through the lock-free
// read path straight into chunk frames, so the send holds one chunk of
// tuples at a time and no lock at all: a follower that reads slowly slows
// only its own session. Chunks go out in the wal stream codec, whose
// dictionary interns column names and strings across the snapshot.
func (p *Publisher) sendSnapshot(f *framer, seq uint64, versions []*core.Relation) error {
	total := 0
	for _, v := range versions {
		total += v.Len()
	}
	if err := f.writeFrame(appendSnapBegin(nil, seq, uint64(total))); err != nil {
		return err
	}
	chunk := make([]relation.Tuple, 0, min(total, snapChunkTuples))
	// A streamed row is a view, so its values are copied into vals, one
	// arena for the chunk's rows that flush empties once they are encoded.
	k := len(p.sorted)
	vals := make([]value.Value, 0, cap(chunk)*k)
	enc := wal.NewStreamEncoder()
	var scratch []byte
	flush := func() error {
		scratch = append(scratch[:0], msgSnapChunk)
		scratch = enc.AppendChunk(scratch, chunk)
		chunk, vals = chunk[:0], vals[:0]
		return f.writeFrame(scratch)
	}
	for _, v := range versions {
		var werr error
		err := v.QueryFunc(relation.NewTuple(), p.sorted, func(t relation.Tuple) bool {
			n := len(vals)
			for i := range k {
				vals = append(vals, t.ValueAt(i))
			}
			chunk = append(chunk, relation.SortedTuple(p.sorted, vals[n:len(vals):len(vals)]))
			if len(chunk) == snapChunkTuples {
				werr = flush()
			}
			return werr == nil
		})
		if err == nil {
			err = werr
		}
		if err != nil {
			return err
		}
	}
	if len(chunk) > 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	if err := f.writeFrame([]byte{msgSnapEnd}); err != nil {
		return err
	}
	if p.met != nil {
		p.met.ReplSnapshots.Add(1)
	}
	return nil
}

// Close detaches the publisher from the relation and terminates every
// session. The relation itself stays open and writable; only the
// shipping stops. Idempotent.
func (p *Publisher) Close() error {
	// Detach the sink before taking p.mu: a writer holding a cell mutex
	// may be blocked on p.mu inside onCommit, and SetCommitSink needs
	// the cell mutexes.
	p.d.SetCommitSink(nil)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]io.Closer, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return nil
}
