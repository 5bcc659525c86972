package store

import (
	"sync"
	"time"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

// CoalesceOptions bound the batches a Coalescer forms.
type CoalesceOptions struct {
	// MaxDelay, when positive, makes a flush leader wait this long
	// before flushing so concurrent publishers can pile in. Zero (the
	// default) relies on natural batching: ops arriving while a flush
	// is in flight form the next batch, so a lone sequential writer
	// pays no added latency at all.
	MaxDelay time.Duration
}

// maxBatchOps caps the operations flushed as one batch.
const maxBatchOps = 256

// Coalescer wraps a Store and group-commits its writes: concurrent
// Append/Delete calls are queued and applied as one ApplyBatch — a
// single WAL transaction and a single fsync — by a leader goroutine,
// while the callers block until their op is durable. Everything else
// is the embedded store's own method. Reads and snapshots pass through
// because queued ops belong to callers that have not yet been
// acknowledged, so no read is required to observe them; a
// caller-assembled ApplyBatch skips the queue because its caller
// already did the grouping.
//
// The protocol is leader/follower: the first op to arrive while no
// flush is running becomes the leader and drains the queue in
// batches of at most maxBatchOps; ops arriving meanwhile are appended to the
// queue and picked up by the same drain (or the next leader). Under a
// serial workload every batch has size one and the coalescer adds two
// channel operations; under N concurrent publishers the fsync cost
// divides by the batch size.
type Coalescer struct {
	inner
	maxDelay time.Duration

	mu       sync.Mutex
	idle     *sync.Cond // signalled when a drain finishes
	queue    []*pendingOp
	flushing bool
	closed   bool
}

// inner is Store under an unexported name: embedding it promotes every
// method the Coalescer does not override without exporting the field.
type inner = Store

// pendingOp is one queued write and the channel its caller blocks on.
type pendingOp struct {
	kind int // 0 = append, 1 = delete, 2 = delete term
	term string
	ps   postings.List
	p    sid.Posting
	done chan error
}

// NewCoalescer wraps st.
func NewCoalescer(st Store, o CoalesceOptions) *Coalescer {
	c := &Coalescer{inner: st, maxDelay: o.MaxDelay}
	c.idle = sync.NewCond(&c.mu)
	return c
}

// Append implements Store: the op joins the current batch and the call
// returns once that batch is durable.
func (c *Coalescer) Append(term string, ps postings.List) error {
	if len(ps) == 0 {
		return nil
	}
	return c.submit(&pendingOp{kind: 0, term: term, ps: ps})
}

// Delete implements Store.
func (c *Coalescer) Delete(term string, p sid.Posting) error {
	return c.submit(&pendingOp{kind: 1, term: term, p: p})
}

// DeleteTerm implements Store. It rides the same queue so it orders
// with the writes around it, but flushes as its own op (a whole-term
// delete is not a batchable key op).
func (c *Coalescer) DeleteTerm(term string) error {
	return c.submit(&pendingOp{kind: 2, term: term})
}

// submit queues op and runs the leader protocol.
func (c *Coalescer) submit(op *pendingOp) error {
	op.done = make(chan error, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.queue = append(c.queue, op)
	if c.flushing {
		// A leader is draining; it (or a successor) will flush us.
		c.mu.Unlock()
		return <-op.done
	}
	c.flushing = true
	c.mu.Unlock()

	c.mu.Lock()
	for len(c.queue) > 0 {
		if c.maxDelay > 0 {
			// Linger before every flush, not just the first: under a
			// CPU-bound arrival stream the queue drains faster than it
			// fills, and without the linger batches collapse to single
			// ops whenever the disk happens to be fast.
			c.mu.Unlock()
			time.Sleep(c.maxDelay)
			c.mu.Lock()
		}
		n := len(c.queue)
		if n > maxBatchOps {
			n = maxBatchOps
		}
		chunk := c.queue[:n:n]
		c.queue = c.queue[n:]
		c.mu.Unlock()
		c.flush(chunk)
		c.mu.Lock()
	}
	c.queue = nil
	c.flushing = false
	c.idle.Broadcast()
	c.mu.Unlock()
	return <-op.done
}

// flush applies one chunk. Contiguous key ops form batches; a
// whole-term delete splits the chunk and applies alone, preserving
// queue order.
func (c *Coalescer) flush(ops []*pendingOp) {
	start := 0
	for i, op := range ops {
		if op.kind != 2 {
			continue
		}
		c.flushBatch(ops[start:i])
		op.done <- c.inner.DeleteTerm(op.term)
		start = i + 1
	}
	c.flushBatch(ops[start:])
}

// flushBatch applies a run of key ops as one batch, falling back to
// per-op application when the batch fails as a unit — a single
// malformed op then reports to its own caller instead of poisoning the
// whole group.
func (c *Coalescer) flushBatch(ops []*pendingOp) {
	switch len(ops) {
	case 0:
		return
	case 1:
		ops[0].done <- c.applyOne(ops[0])
		return
	}
	b := NewBatch()
	for _, op := range ops {
		if op.kind == 1 {
			b.Delete(op.term, op.p)
		} else {
			b.Append(op.term, op.ps)
		}
	}
	if err := c.inner.ApplyBatch(b); err == nil {
		for _, op := range ops {
			op.done <- nil
		}
		return
	}
	for _, op := range ops {
		op.done <- c.applyOne(op)
	}
}

func (c *Coalescer) applyOne(op *pendingOp) error {
	if op.kind == 1 {
		return c.inner.Delete(op.term, op.p)
	}
	return c.inner.Append(op.term, op.ps)
}

// Close implements Store: it rejects new writes, waits for the queue to
// drain, then closes the inner store.
func (c *Coalescer) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.closed = true
	for c.flushing {
		c.idle.Wait()
	}
	c.mu.Unlock()
	return c.inner.Close()
}
