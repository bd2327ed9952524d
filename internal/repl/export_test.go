package repl

import "unsafe"

// retained returns a copy of the payload the window keeps for sequence seq,
// or nil when seq is not in the window.
func (p *Publisher) retained(seq uint64) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if seq <= p.base || seq > p.head {
		return nil
	}
	return append([]byte(nil), p.record(p.lo+int(seq-p.base-1))...)
}

// windowBytes is the heap the retained window holds: the capacity of its
// blocks, of the spare block and of its offsets, dead prefix included.
func (p *Publisher) windowBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := cap(p.spare) + cap(p.offs)*int(unsafe.Sizeof(0))
	for _, b := range p.blocks {
		n += cap(b.b)
	}
	return n
}
