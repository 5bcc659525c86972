package postings

import (
	"io"
	"sync"

	"kadop/internal/sid"
)

// Stream is the pull interface through which posting lists flow between
// producers (peers holding index fragments) and consumers (the holistic
// twig join). Streams deliver postings in the canonical order.
//
// The paper's "pipelined get" (Section 3) is realised by streams backed
// by network pipes: the consumer starts joining as soon as the first
// postings of every list arrive, instead of blocking until whole lists
// have been received.
type Stream interface {
	// Next returns the next posting. It returns io.EOF after the last
	// posting has been delivered.
	Next() (sid.Posting, error)
}

// SliceStream adapts an in-memory list to the Stream interface.
type SliceStream struct {
	list List
	pos  int
}

// NewSliceStream returns a stream over the sorted list l.
func NewSliceStream(l List) *SliceStream { return &SliceStream{list: l} }

// Next implements Stream.
func (s *SliceStream) Next() (sid.Posting, error) {
	if s.pos >= len(s.list) {
		return sid.Posting{}, io.EOF
	}
	p := s.list[s.pos]
	s.pos++
	return p, nil
}

// Rest returns the postings not yet consumed, without consuming them.
func (s *SliceStream) Rest() List { return s.list[s.pos:] }

// Pipe is a bounded buffer connecting one producer goroutine to one
// consumer; it is the in-process equivalent of the network pipe the
// paper assumes between producers and the holistic join consumer.
//
// The consumer takes the whole buffer at once and hands its postings
// out without locking, so it pays one lock and one wake-up per batch,
// not per posting. The producer refills the buffer meanwhile: up to
// twice the limit may be in flight, the limit buffered and the limit
// in the consumer's hands.
type Pipe struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    List
	closed bool
	err    error
	limit  int

	// The consumer's side: the batch it took last, and how far it got.
	out List
	pos int
}

// NewPipe returns a pipe whose internal buffer holds at most limit
// postings (limit <= 0 means a default of 4096). A full buffer blocks
// the producer, providing back-pressure like a TCP window.
func NewPipe(limit int) *Pipe {
	if limit <= 0 {
		limit = 4096
	}
	p := &Pipe{limit: limit}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Send appends batch to the pipe, blocking while the buffer is full.
// It returns false if the pipe has been closed.
func (p *Pipe) Send(batch List) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(batch) > 0 {
		for len(p.buf) >= p.limit && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			return false
		}
		room := p.limit - len(p.buf)
		if room > len(batch) {
			room = len(batch)
		}
		p.buf = append(p.buf, batch[:room]...)
		batch = batch[room:]
		p.cond.Broadcast()
	}
	return true
}

// Close marks the end of the stream. If err is non-nil the consumer's
// Next will return it after draining the buffered postings; otherwise
// Next returns io.EOF.
func (p *Pipe) Close(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	p.err = err
	p.cond.Broadcast()
}

// Next implements Stream for the consumer side of the pipe.
func (p *Pipe) Next() (sid.Posting, error) {
	if p.pos == len(p.out) {
		if err := p.take(); err != nil {
			return sid.Posting{}, err
		}
	}
	v := p.out[p.pos]
	p.pos++
	return v, nil
}

// take swaps the buffered postings in as the consumer's batch, handing
// the spent batch's array back to the producer. It returns the close
// error, or io.EOF, once the pipe is closed and drained.
func (p *Pipe) take() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.buf) == 0 {
		if p.err != nil {
			return p.err
		}
		return io.EOF
	}
	p.out, p.buf, p.pos = p.buf, p.out[:0], 0
	p.cond.Broadcast()
	return nil
}

// Drain consumes the whole stream into a list. It is used by tests and
// by the non-pipelined (blocking get) baseline.
func Drain(s Stream) (List, error) {
	var out List
	for {
		p, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// Concat returns a stream that delivers the postings of each stream in
// turn. It is used to reassemble a DPP-partitioned list from its blocks,
// whose conditions guarantee the concatenation is globally sorted.
func Concat(streams ...Stream) Stream {
	return &concatStream{streams: streams}
}

type concatStream struct {
	streams []Stream
}

func (c *concatStream) Next() (sid.Posting, error) {
	for len(c.streams) > 0 {
		p, err := c.streams[0].Next()
		if err == io.EOF {
			c.streams = c.streams[1:]
			continue
		}
		return p, err
	}
	return sid.Posting{}, io.EOF
}

// MergeStreams returns a stream delivering the union of the (sorted)
// input streams in canonical order. It is used when a list's blocks are
// not ordered (the randomised DPP split ablation of Section 4.1).
func MergeStreams(streams ...Stream) Stream {
	m := &mergeStream{}
	for _, s := range streams {
		m.heads = append(m.heads, mergeHead{s: s})
	}
	return m
}

type mergeHead struct {
	s    Stream
	cur  sid.Posting
	live bool
}

type mergeStream struct {
	heads  []mergeHead
	primed bool
}

func (m *mergeStream) prime() error {
	for i := range m.heads {
		p, err := m.heads[i].s.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		m.heads[i].cur = p
		m.heads[i].live = true
	}
	m.primed = true
	return nil
}

func (m *mergeStream) Next() (sid.Posting, error) {
	if !m.primed {
		if err := m.prime(); err != nil {
			return sid.Posting{}, err
		}
	}
	best := -1
	for i := range m.heads {
		if !m.heads[i].live {
			continue
		}
		if best < 0 || m.heads[i].cur.Less(m.heads[best].cur) {
			best = i
		}
	}
	if best < 0 {
		return sid.Posting{}, io.EOF
	}
	out := m.heads[best].cur
	p, err := m.heads[best].s.Next()
	if err == io.EOF {
		m.heads[best].live = false
	} else if err != nil {
		return sid.Posting{}, err
	} else {
		m.heads[best].cur = p
	}
	return out, nil
}
