// Package store implements the local index stores a KadoP peer can run.
//
// Section 3 of the paper attributes two to three orders of magnitude of
// publishing speed-up to replacing PAST's gzip-file store with a
// BerkeleyDB B+-tree, clustered by term with postings in (p, d, sid)
// order, and to extending the DHT API with an append operation of
// linear cost. This package provides:
//
//   - BTree: a from-scratch page-based disk B+-tree with the same
//     clustering (term, posting) and a linear-cost Append;
//   - Mem: an in-memory store with identical semantics, used by the
//     simulated deployments where thousands of peers share a process.
//
// Both implement the one Store contract below, as do the wrappers that
// stack on them (Coalescer, Instrumented). The PAST-like baseline the
// paper measured against lives in internal/experiments.
package store

import (
	"sort"
	"sync"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

// Reader is the read half of the contract, shared by a live store and
// the snapshots it hands out.
type Reader interface {
	// Get returns the term's full posting list in canonical order.
	Get(term string) (postings.List, error)
	// Scan streams the term's postings in order, starting at the first
	// posting >= from. It stops early when fn returns false.
	Scan(term string, from sid.Posting, fn func(sid.Posting) bool) error
	// Runs streams the term's postings inside the closed interval
	// [from, to] as runs, in order, until fn returns false. A run's
	// bytes alias store memory and are valid only during the call. A
	// disk store hands out the runs it keeps, only those a bound cuts
	// re-encoded, so a holder can ship them without decoding a posting.
	Runs(term string, from, to sid.Posting, fn func(postings.Run) bool) error
	// Count returns the number of postings stored for the term.
	Count(term string) (int, error)
	// Terms lists the stored terms — those with at least one posting —
	// in lexicographic order.
	Terms() ([]string, error)
}

// Snapshot is a read-only view of a store pinned at one committed
// generation. Reads through a snapshot never block behind writers and
// never observe a later write — in particular they cannot see half of
// an in-flight batch. Close releases the pin; after Close the snapshot
// must not be used. A Snapshot is safe for concurrent readers.
type Snapshot interface {
	Reader
	Close() error
}

// Store is the local index contract the DHT layer builds on: a map from
// term keys to posting lists kept in canonical order, written op by op
// or a batch at a time, read live or through a snapshot.
type Store interface {
	Reader
	// Append adds postings to the term's list. Implementations must cost
	// O(len(ps) · log N), never O(existing list size).
	Append(term string, ps postings.List) error
	// Delete removes one posting from the term's list (it is not an
	// error if absent).
	Delete(term string, p sid.Posting) error
	// DeleteTerm removes a term's entire list.
	DeleteTerm(term string) error
	// ApplyBatch applies the batch as one atomic transaction (a single
	// fsync on a durable store): a crash, a concurrent reader or a
	// snapshot sees all of the batch or none of it. A nil or empty
	// batch is a no-op.
	ApplyBatch(b *Batch) error
	// Snapshot pins the last committed generation. It fails on a closed
	// store (ErrClosed) or one poisoned by an I/O error; the caller must
	// Close the snapshot it gets.
	Snapshot() (Snapshot, error)
	// Close releases resources, flushing pending writes.
	Close() error
}

// Mem is an in-memory Store.
type Mem struct {
	mu    sync.RWMutex
	lists map[string]postings.List
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{lists: map[string]postings.List{}} }

// Append implements Store. Postings are merged into sorted position.
// Re-appending a posting already present is a no-op, which makes
// at-least-once delivery (retried or duplicated DHT appends) safe.
func (m *Mem) Append(term string, ps postings.List) error {
	if len(ps) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.appendLocked(term, ps)
	return nil
}

// appendLocked merges postings under m.mu (Append and ApplyBatch). It
// never overwrites elements below a published slice's length, so slice
// headers handed out by Snapshot stay valid without copying.
func (m *Mem) appendLocked(term string, ps postings.List) {
	add := ps.Clone()
	add.Sort()
	add = add.Dedup()
	cur := m.lists[term]
	if n := len(cur); n == 0 || cur[n-1].Compare(add[0]) < 0 {
		// Common fast path: bulk loads arrive in order.
		m.lists[term] = append(cur, add...)
		return
	}
	m.lists[term] = postings.MergeUnique(cur, add)
}

// Get implements Store.
func (m *Mem) Get(term string) (postings.List, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.lists[term].Clone(), nil
}

// Scan implements Store. The slice header captured under RLock is a
// consistent prefix of the list — published elements are never mutated
// in place (Append extends past the captured length, Delete copies) —
// so the scan iterates it directly instead of cloning the whole tail,
// which allocated O(list) even when fn stopped after one posting.
func (m *Mem) Scan(term string, from sid.Posting, fn func(sid.Posting) bool) error {
	m.mu.RLock()
	l := m.lists[term]
	m.mu.RUnlock()
	i := sort.Search(len(l), func(i int) bool { return l[i].Compare(from) >= 0 })
	for _, p := range l[i:] {
		if !fn(p) {
			return nil
		}
	}
	return nil
}

// Runs implements Store, encoding the list into runs on the fly.
func (m *Mem) Runs(term string, from, to sid.Posting, fn func(postings.Run) bool) error {
	m.mu.RLock()
	l := m.lists[term]
	m.mu.RUnlock()
	return l.Runs(from, to, fn)
}

// Count implements Store.
func (m *Mem) Count(term string) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.lists[term]), nil
}

// Delete implements Store.
func (m *Mem) Delete(term string, p sid.Posting) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deleteLocked(term, p)
	return nil
}

// deleteLocked removes one posting under m.mu. It rebuilds the list
// instead of shifting in place: slice headers handed out by Snapshot
// (and by lock-free Scan) share the old backing array, which must stay
// untouched.
func (m *Mem) deleteLocked(term string, p sid.Posting) {
	l := m.lists[term]
	i := sort.Search(len(l), func(i int) bool { return l[i].Compare(p) >= 0 })
	if i >= len(l) || l[i] != p {
		return
	}
	if len(l) == 1 {
		delete(m.lists, term) // an emptied term is no term, as in the B+-tree
		return
	}
	nl := make(postings.List, 0, len(l)-1)
	nl = append(nl, l[:i]...)
	nl = append(nl, l[i+1:]...)
	m.lists[term] = nl
}

// DeleteTerm implements Store.
func (m *Mem) DeleteTerm(term string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.lists, term)
	return nil
}

// Terms implements Store.
func (m *Mem) Terms() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.lists))
	for t := range m.lists {
		out = append(out, t)
	}
	sort.Strings(out)
	return out, nil
}

// Close implements Store.
func (m *Mem) Close() error { return nil }
