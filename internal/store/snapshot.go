package store

import (
	"fmt"
	"sync"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

// This file implements MVCC snapshot reads for the disk B+-tree.
//
// A snapshot pins the committed generation at its creation instant: the
// last committed root page id and page count. Creation is valid at ANY
// instant, including mid-transaction — the pager keeps the committed
// pre-images of the in-flight transaction's dirty pages (txUndo), and a
// new snapshot starts from a copy of them. From then on the writer
// proceeds copy-on-write — before the first mutation of any page the
// snapshot can reach, markDirty stashes the page's committed image into
// the snapshot's overlay (pager.go). A snapshot read resolves a page id
// in order:
//
//	private cache → overlay pre-image → live cache (the page's shared
//	clone, made under snapMu) → page file
//
// The live-cache clone is shallow: the key byte slices are shared with
// the live tree (they are never mutated in place — inserts splice fresh
// copies into the pointer array), so posting blocks are served
// zero-copy from pinned pages. It is made once per clean cached page
// and shared by every snapshot that resolves the page until the writer
// next touches it (markDirty hands it on as the pre-image) or the cache
// evicts the page, so a burst of short snapshots — one per posting
// stream served — copies each hot page's pointer array once, not once
// per snapshot. The page-file path re-checks the overlay
// after the read: a write-back racing the read can only concern a page
// that went through markDirty first, so either the disk bytes are the
// pinned generation or the overlay now holds it.
//
// Readers never take the tree's writer lock, so a bulk publish holds no
// lock a query waits on — and a query pins no lock that would stall the
// publish. The cost is bounded: overlays hold pre-images only for pages
// the writer actually touches during the snapshot's lifetime, and
// vanish with Close.

// snapState is the pager-side record of one live snapshot.
type snapState struct {
	id      uint64
	root    uint32
	npages  uint32           // pages that existed at snapshot time
	overlay map[uint32]*page // committed pre-images of pages since rewritten
}

// clone returns a read-only copy of p sharing the entry bytes (the
// individual key and run slices are immutable; only the pointer arrays
// are copied).
func (p *page) clone() *page {
	cp := &page{id: p.id, typ: p.typ, next: p.next}
	cp.keys = append(make([][]byte, 0, len(p.keys)), p.keys...)
	if p.vals != nil {
		cp.vals = append(make([][]byte, 0, len(p.vals)), p.vals...)
	}
	if p.children != nil {
		cp.children = append(make([]uint32, 0, len(p.children)), p.children...)
	}
	return cp
}

// openSnapshot registers a snapshot of the last committed generation.
// It takes only snapMu — never the tree's writer lock — so creating a
// snapshot does not wait for an in-flight transaction (whose commit may
// be an fsync away). The snapshot starts from the committed root and
// page count, with the in-flight transaction's undo images copied as
// its initial overlay: pages the transaction already dirtied resolve to
// their committed pre-images, and pages it dirties later are stashed by
// markDirty like for any other live snapshot.
func (pg *pager) openSnapshot() (*snapState, error) {
	pg.snapMu.Lock()
	defer pg.snapMu.Unlock()
	if pg.snapClosed {
		return nil, ErrClosed
	}
	if pg.snapErr != nil {
		return nil, pg.snapErr
	}
	overlay := make(map[uint32]*page, len(pg.txUndo))
	for id, p := range pg.txUndo {
		overlay[id] = p
	}
	pg.snapSeq++
	s := &snapState{id: pg.snapSeq, root: pg.committedRoot, npages: pg.committedNPages, overlay: overlay}
	pg.snaps[s.id] = s
	return s, nil
}

// closeSnapshot releases the pin; the writer stops stashing pre-images
// for it and the overlay becomes garbage.
func (pg *pager) closeSnapshot(s *snapState) {
	pg.snapMu.Lock()
	delete(pg.snaps, s.id)
	pg.snapMu.Unlock()
}

// snapCacheLimit caps a snapshot's private page cache. Pages past the
// cap evict arbitrarily — a snapshot is a short-lived read view, not a
// second buffer pool.
const snapCacheLimit = 512

// btreeSnap implements Snapshot over a BTree. Safe for concurrent use.
type btreeSnap struct {
	pg *pager
	st *snapState

	mu     sync.Mutex
	cache  map[uint32]*page
	closed bool
}

// Snapshot implements Store: it pins the last committed
// generation of the tree. Creation deliberately does NOT take the
// tree's writer lock — a batch commit in the middle of its fsync would
// otherwise stall every reader for the full flush — so a snapshot can
// be opened at any instant and sees the committed state as of that
// instant. Readers of the snapshot never block behind (or tear against)
// writers; the caller must Close it to release the copy-on-write pin.
func (t *BTree) Snapshot() (Snapshot, error) {
	st, err := t.pager.openSnapshot()
	if err != nil {
		return nil, err
	}
	return &btreeSnap{
		pg:    t.pager,
		st:    st,
		cache: map[uint32]*page{},
	}, nil
}

// page resolves a page id to its content as of the snapshot.
func (s *btreeSnap) page(id uint32) (*page, error) {
	if id == 0 || id > s.st.npages {
		return nil, fmt.Errorf("store: snapshot: page id %d out of range (have %d)", id, s.st.npages)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if p, ok := s.cache[id]; ok {
		s.mu.Unlock()
		return p, nil
	}
	s.mu.Unlock()

	pg := s.pg
	pg.snapMu.Lock()
	if p, ok := s.st.overlay[id]; ok {
		pg.snapMu.Unlock()
		return s.keep(p), nil
	}
	if p, ok := pg.cache[id]; ok {
		// Unmodified since the snapshot (else the overlay would hold its
		// pre-image). Every snapshot shares one clone of the page,
		// made under snapMu so a writer about to modify the page must
		// stash first and cannot race the copy.
		if p.shared == nil {
			p.shared = p.clone()
		}
		cp := p.shared
		pg.snapMu.Unlock()
		return s.keep(cp), nil
	}
	pg.snapMu.Unlock()

	// Cold page: read the page file without any lock. The read can race
	// a write-back of a newer generation (eviction happens under snapMu,
	// but our read syscall does not), so re-check the overlay after the
	// fact: any post-snapshot change to this page stashed its pre-image
	// there before the page could reach the disk. No overlay entry means
	// the disk bytes ARE the pinned generation.
	buf := make([]byte, pageSize)
	_, rdErr := pg.f.ReadAt(buf, int64(id)*pageSize)
	p := &page{id: id}
	parseErr := rdErr
	if parseErr == nil {
		parseErr = p.deserialize(buf)
	}
	pg.snapMu.Lock()
	op, ok := s.st.overlay[id]
	pg.snapMu.Unlock()
	if ok {
		return s.keep(op), nil
	}
	if parseErr != nil {
		return nil, fmt.Errorf("store: snapshot: read page %d: %w", id, parseErr)
	}
	return s.keep(p), nil
}

// keep caches a resolved page, evicting arbitrarily past the cap. A
// concurrently closed snapshot just skips caching.
func (s *btreeSnap) keep(p *page) *page {
	s.mu.Lock()
	if s.cache != nil {
		if len(s.cache) >= snapCacheLimit {
			for id := range s.cache {
				delete(s.cache, id)
				break
			}
		}
		s.cache[p.id] = p
	}
	s.mu.Unlock()
	return p
}

// view is the snapshot's read view: the pinned root, pages resolved
// as of the snapshot.
func (s *btreeSnap) view() view { return view{root: s.st.root, page: s.page} }

// Scan implements Snapshot.
func (s *btreeSnap) Scan(term string, from sid.Posting, fn func(sid.Posting) bool) error {
	return s.view().scan(term, from, fn)
}

// Runs implements Snapshot.
func (s *btreeSnap) Runs(term string, from, to sid.Posting, fn func(postings.Run) bool) error {
	return s.view().clippedRuns(term, from, to, fn)
}

// Get implements Snapshot.
func (s *btreeSnap) Get(term string) (postings.List, error) { return s.view().get(term) }

// Count implements Snapshot.
func (s *btreeSnap) Count(term string) (int, error) { return s.view().count(term) }

// Terms implements Snapshot.
func (s *btreeSnap) Terms() ([]string, error) { return s.view().terms() }

// Close implements Snapshot: it releases the copy-on-write pin.
// Idempotent.
func (s *btreeSnap) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cache = nil
	s.mu.Unlock()
	s.pg.closeSnapshot(s.st)
	return nil
}
