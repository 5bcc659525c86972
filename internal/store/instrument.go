package store

import (
	"kadop/internal/metrics"
	"kadop/internal/postings"
	"kadop/internal/sid"
)

// metered charges every serve (Get, Scan or Runs) through the embedded
// view to a per-peer metrics.Load, attributing by term; Count, Terms
// and Close pass through. The view is the live store or one of its
// snapshots — a Store's method set includes Snapshot's — so this one
// type meters both.
type metered struct {
	Snapshot
	load *metrics.Load
}

// Get implements Reader.
func (m *metered) Get(term string) (postings.List, error) {
	l, err := m.Snapshot.Get(term)
	if err == nil {
		m.load.Serve(term, len(l))
	}
	return l, err
}

// Scan implements Reader. Only postings actually delivered to fn are
// charged — an early-stopped scan served less.
func (m *metered) Scan(term string, from sid.Posting, fn func(sid.Posting) bool) error {
	n := 0
	err := m.Snapshot.Scan(term, from, func(p sid.Posting) bool {
		ok := fn(p)
		if ok {
			n++
		}
		return ok
	})
	m.load.Serve(term, n)
	return err
}

// Runs implements Reader, charging the postings of the runs fn takes.
func (m *metered) Runs(term string, from, to sid.Posting, fn func(postings.Run) bool) error {
	n := 0
	err := m.Snapshot.Runs(term, from, to, func(r postings.Run) bool {
		ok := fn(r)
		if ok {
			n += r.N
		}
		return ok
	})
	m.load.Serve(term, n)
	return err
}

// Instrumented wraps a Store and charges every append and every serve
// to a per-peer metrics.Load. The DHT node wraps its store at
// construction, so all index traffic a peer absorbs — replicated
// appends, repair pushes, posting streams, DPP block serves — lands in
// the same per-peer ledger regardless of which handler triggered it.
type Instrumented struct {
	metered // reads of the live store
	inner   Store
}

// Instrument wraps st so its traffic accrues to load. A nil load
// returns st unchanged.
func Instrument(st Store, load *metrics.Load) Store {
	if load == nil {
		return st
	}
	return &Instrumented{metered: metered{Snapshot: st, load: load}, inner: st}
}

// Append implements Store.
func (s *Instrumented) Append(term string, ps postings.List) error {
	err := s.inner.Append(term, ps)
	if err == nil {
		s.load.Append(term, len(ps))
	}
	return err
}

// ApplyBatch implements Store, charging each appended op's postings to
// the ledger exactly as the per-op path would.
func (s *Instrumented) ApplyBatch(b *Batch) error {
	err := s.inner.ApplyBatch(b)
	if err == nil && b != nil {
		for _, op := range b.ops {
			if !op.del {
				s.load.Append(op.term, len(op.ps))
			}
		}
	}
	return err
}

// Snapshot implements Store; serves through the snapshot charge the
// same ledger as live reads.
func (s *Instrumented) Snapshot() (Snapshot, error) {
	snap, err := s.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	return &metered{Snapshot: snap, load: s.load}, nil
}

// Delete implements Store.
func (s *Instrumented) Delete(term string, p sid.Posting) error { return s.inner.Delete(term, p) }

// DeleteTerm implements Store.
func (s *Instrumented) DeleteTerm(term string) error { return s.inner.DeleteTerm(term) }
