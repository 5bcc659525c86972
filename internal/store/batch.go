package store

import (
	"sort"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

// Batch collects many Append/Delete operations so a store can make them
// durable as ONE transaction: a single WAL append fenced by a single
// commit record, and therefore a single fsync at FsyncAlways — the
// group commit that turns N per-op syncs into one. Batches are built by
// one goroutine (or behind the Coalescer's lock) and are not safe for
// concurrent mutation.
type Batch struct {
	ops []batchOp
}

// batchOp is one queued operation. A nil ps with del=false is never
// queued (empty appends are dropped at the door).
type batchOp struct {
	del  bool
	term string
	ps   postings.List // append payload
	p    sid.Posting   // delete target
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Append queues postings for the term. The list is NOT cloned; the
// caller must not mutate it afterwards. Empty lists are dropped.
func (b *Batch) Append(term string, ps postings.List) {
	if len(ps) == 0 {
		return
	}
	b.ops = append(b.ops, batchOp{term: term, ps: ps})
}

// Delete queues removal of one posting from the term's list.
func (b *Batch) Delete(term string, p sid.Posting) {
	b.ops = append(b.ops, batchOp{del: true, term: term, p: p})
}

// Len reports the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Replay applies the queued operations to st one by one, stopping at
// the first error — how a store with no transaction of its own (the
// naive baseline in internal/experiments) implements ApplyBatch.
func (b *Batch) Replay(st Store) error {
	if b == nil {
		return nil
	}
	for _, op := range b.ops {
		var err error
		if op.del {
			err = st.Delete(op.term, op.p)
		} else {
			err = st.Append(op.term, op.ps)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ApplyBatch is st.ApplyBatch(b) behind a nil/empty-batch guard. It and
// SnapshotOf remain only because the frozen benchmark (bench/) calls
// them; everything else calls the methods.
func ApplyBatch(st Store, b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	return st.ApplyBatch(b)
}

// SnapshotOf is st.Snapshot() with an error folded into a nil result.
func SnapshotOf(st Store) Snapshot {
	snap, err := st.Snapshot()
	if err != nil {
		return nil
	}
	return snap
}

// ---- Mem --------------------------------------------------------------

// ApplyBatch implements Store: all ops land under one lock hold, so a
// concurrent reader (or snapshot taken before/after) sees none or all
// of the batch.
func (m *Mem) ApplyBatch(b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, op := range b.ops {
		if op.del {
			m.deleteLocked(op.term, op.p)
		} else {
			m.appendLocked(op.term, op.ps)
		}
	}
	return nil
}

// Snapshot implements Store. Mem's posting slices are immutable
// once published (Append replaces or extends past the snapshot's
// length, Delete copies), so the snapshot is a zero-copy map of slice
// headers.
func (m *Mem) Snapshot() (Snapshot, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	lists := make(map[string]postings.List, len(m.lists))
	for t, l := range m.lists {
		lists[t] = l
	}
	return &memSnap{lists: lists}, nil
}

// memSnap is a point-in-time view of a Mem store.
type memSnap struct {
	lists map[string]postings.List
}

func (s *memSnap) Get(term string) (postings.List, error) {
	return s.lists[term].Clone(), nil
}

func (s *memSnap) Scan(term string, from sid.Posting, fn func(sid.Posting) bool) error {
	l := s.lists[term]
	i := sort.Search(len(l), func(i int) bool { return l[i].Compare(from) >= 0 })
	for _, p := range l[i:] {
		if !fn(p) {
			return nil
		}
	}
	return nil
}

func (s *memSnap) Runs(term string, from, to sid.Posting, fn func(postings.Run) bool) error {
	return s.lists[term].Runs(from, to, fn)
}

func (s *memSnap) Count(term string) (int, error) { return len(s.lists[term]), nil }

func (s *memSnap) Terms() ([]string, error) {
	out := make([]string, 0, len(s.lists))
	for t := range s.lists {
		out = append(out, t)
	}
	sort.Strings(out)
	return out, nil
}

func (s *memSnap) Close() error { return nil }
