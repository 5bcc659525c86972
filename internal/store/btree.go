package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

// BTree is a page-based disk B+-tree storing composite
// (term, posting) keys, so each term's postings form one contiguous,
// ordered key range — the clustered organisation the paper adopts from
// BerkeleyDB. It is a key-only tree: the key encodes everything.
//
// Pages are 4 KiB. Leaves are chained left-to-right for range scans.
// Deleted keys leave pages in place (no rebalancing); a store serving a
// KadoP peer treats document modification as delete + insert, and
// reclaims space by periodic rebuild if ever needed.
type BTree struct {
	mu     sync.Mutex
	pager  *pager
	root   uint32
	closed bool
}

const (
	pageLeaf   = 1
	pageBranch = 2
	maxKeyLen  = 1024
)

// ErrClosed is returned by every Store method called after Close (and
// by a second Close). Before this guard existed, operations on a
// closed tree leaked raw OS errors from the closed file descriptor.
var ErrClosed = errors.New("store: btree is closed")

// OpenBTree opens (or creates) a B+-tree file at path with default
// durability options (WAL fsynced on every operation).
func OpenBTree(path string) (*BTree, error) {
	return OpenBTreeOptions(path, Options{})
}

// OpenBTreeOptions is OpenBTree with explicit durability tuning. Open
// runs crash recovery first: the committed prefix of the write-ahead
// log is replayed onto the page file and any torn tail is discarded, so
// a tree that crashed mid-write reopens to its last committed state.
func OpenBTreeOptions(path string, opts Options) (*BTree, error) {
	pg, root, err := openPager(path, opts)
	if err != nil {
		return nil, err
	}
	t := &BTree{pager: pg, root: root}
	if root == 0 {
		// Fresh file: allocate an empty leaf as root.
		leaf := pg.alloc(pageLeaf)
		t.root = leaf.id
		pg.setRoot(leaf.id)
		if err := pg.commit(); err != nil {
			pg.close()
			return nil, err
		}
	}
	return t, nil
}

// encodeKey builds the composite key: term bytes, a zero separator, and
// the posting in fixed-width big-endian form so that byte order equals
// the canonical posting order.
func encodeKey(term string, p sid.Posting) ([]byte, error) {
	if len(term) == 0 || len(term) > maxKeyLen-32 {
		return nil, fmt.Errorf("store: btree: bad term length %d", len(term))
	}
	for i := 0; i < len(term); i++ {
		if term[i] == 0 {
			return nil, fmt.Errorf("store: btree: term contains NUL byte")
		}
	}
	k := make([]byte, 0, len(term)+1+18)
	k = append(k, term...)
	k = append(k, 0)
	var buf [18]byte
	binary.BigEndian.PutUint32(buf[0:], uint32(p.Peer))
	binary.BigEndian.PutUint32(buf[4:], uint32(p.Doc))
	binary.BigEndian.PutUint32(buf[8:], p.SID.Start)
	binary.BigEndian.PutUint32(buf[12:], p.SID.End)
	binary.BigEndian.PutUint16(buf[16:], p.SID.Level)
	return append(k, buf[:]...), nil
}

// decodeKey splits a composite key back into term and posting.
func decodeKey(k []byte) (string, sid.Posting, error) {
	sep := bytes.IndexByte(k, 0)
	if sep < 0 {
		return "", sid.Posting{}, fmt.Errorf("store: btree: malformed key of %d bytes", len(k))
	}
	p, err := postingAt(k, sep+1)
	return string(k[:sep]), p, err
}

// postingAt decodes the posting of a composite key whose term prefix,
// NUL included, is off bytes long. Scans know the prefix, so they read
// the posting straight from the key bytes without building the term.
func postingAt(k []byte, off int) (sid.Posting, error) {
	if len(k) != off+18 {
		return sid.Posting{}, fmt.Errorf("store: btree: malformed key of %d bytes", len(k))
	}
	b := k[off:]
	return sid.Posting{
		Peer: sid.PeerID(binary.BigEndian.Uint32(b[0:])),
		Doc:  sid.DocID(binary.BigEndian.Uint32(b[4:])),
		SID: sid.SID{
			Start: binary.BigEndian.Uint32(b[8:]),
			End:   binary.BigEndian.Uint32(b[12:]),
			Level: binary.BigEndian.Uint16(b[16:]),
		},
	}, nil
}

// termPrefix is the key prefix shared by all postings of a term.
func termPrefix(term string) []byte {
	k := make([]byte, 0, len(term)+1)
	k = append(k, term...)
	return append(k, 0)
}

// Append implements Store: each posting is one B+-tree insertion,
// O(log N), independent of the term's existing list size.
func (t *BTree) Append(term string, ps postings.List) error {
	if len(ps) == 0 {
		return nil
	}
	add := ps.Clone()
	add.Sort()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	for _, p := range add {
		k, err := encodeKey(term, p)
		if err != nil {
			return err
		}
		if err := t.insert(k); err != nil {
			return err
		}
	}
	return t.pager.commit()
}

// insert adds key to the tree, splitting pages as needed.
func (t *BTree) insert(key []byte) error {
	// Descend, remembering the path for split propagation.
	type pathEntry struct {
		page *page
		idx  int // child index taken
	}
	var path []pathEntry
	cur, err := t.pager.get(t.root)
	if err != nil {
		return err
	}
	for cur.typ == pageBranch {
		i := cur.childIndex(key)
		path = append(path, pathEntry{cur, i})
		cur, err = t.pager.get(cur.children[i])
		if err != nil {
			return err
		}
	}
	// Insert into leaf (duplicates are idempotent: a term posting is a
	// set member). markDirty precedes the mutation: it stashes the
	// page's committed image for live snapshots (copy-on-write).
	i := sort.Search(len(cur.keys), func(i int) bool { return bytes.Compare(cur.keys[i], key) >= 0 })
	if i < len(cur.keys) && bytes.Equal(cur.keys[i], key) {
		return nil
	}
	t.pager.markDirty(cur)
	cur.keys = append(cur.keys, nil)
	copy(cur.keys[i+1:], cur.keys[i:])
	cur.keys[i] = append([]byte(nil), key...)

	// Split up the path while pages overflow.
	for cur.overflows() {
		right, sep := t.split(cur)
		if len(path) == 0 {
			// Grow a new root (fresh page: alloc already marked it).
			nr := t.pager.alloc(pageBranch)
			nr.keys = [][]byte{sep}
			nr.children = []uint32{cur.id, right.id}
			t.root = nr.id
			t.pager.setRoot(nr.id)
			return nil
		}
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		p := parent.page
		i := parent.idx
		t.pager.markDirty(p)
		p.keys = append(p.keys, nil)
		copy(p.keys[i+1:], p.keys[i:])
		p.keys[i] = sep
		p.children = append(p.children, 0)
		copy(p.children[i+2:], p.children[i+1:])
		p.children[i+1] = right.id
		cur = p
	}
	return nil
}

// split divides an overflowing page in two and returns the new right
// sibling and the separator key (smallest key routed to the right).
func (t *BTree) split(p *page) (*page, []byte) {
	// Mark p before moving keys out of it (copy-on-write pre-image);
	// right is fresh, so alloc's markDirty suffices for it.
	t.pager.markDirty(p)
	right := t.pager.alloc(p.typ)
	mid := len(p.keys) / 2
	var sep []byte
	if p.typ == pageLeaf {
		right.keys = append(right.keys, p.keys[mid:]...)
		p.keys = p.keys[:mid]
		sep = append([]byte(nil), right.keys[0]...)
		right.next = p.next
		p.next = right.id
	} else {
		// Branch: the middle key moves up, not right.
		sep = append([]byte(nil), p.keys[mid]...)
		right.keys = append(right.keys, p.keys[mid+1:]...)
		right.children = append(right.children, p.children[mid+1:]...)
		p.keys = p.keys[:mid]
		p.children = p.children[:mid+1]
	}
	return right, sep
}

// seek returns the leaf containing the first key >= key and that key's
// index within the leaf (which may be len(keys) if past the end).
func (t *BTree) seek(key []byte) (*page, int, error) {
	cur, err := t.pager.get(t.root)
	if err != nil {
		return nil, 0, err
	}
	for cur.typ == pageBranch {
		cur, err = t.pager.get(cur.children[cur.childIndex(key)])
		if err != nil {
			return nil, 0, err
		}
	}
	i := sort.Search(len(cur.keys), func(i int) bool { return bytes.Compare(cur.keys[i], key) >= 0 })
	return cur, i, nil
}

// Scan implements Store.
func (t *BTree) Scan(term string, from sid.Posting, fn func(sid.Posting) bool) error {
	start, err := encodeKey(term, from)
	if err != nil {
		return err
	}
	prefix := termPrefix(term)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	leaf, i, err := t.seek(start)
	if err != nil {
		return err
	}
	return scanLeaves(leaf, i, prefix, t.pager.get, fn)
}

// scanLeaves delivers to fn the postings of the keys carrying prefix,
// from the i-th key of leaf on, following the leaf chain through get.
// The scan starts at a key carrying the prefix and keys are sorted, so
// when a leaf's last key carries the prefix every key from the scan
// position on does: the prefix is checked once per such leaf, and key
// by key only in the leaf where the term ends. A leaf with nothing left
// to read — empty, or entered past its end by the seek — passes the
// scan on to the next one.
func scanLeaves(leaf *page, i int, prefix []byte, get func(uint32) (*page, error), fn func(sid.Posting) bool) error {
	for {
		if n := len(leaf.keys); i < n {
			whole := bytes.HasPrefix(leaf.keys[n-1], prefix)
			for ; i < n; i++ {
				k := leaf.keys[i]
				if !whole && !bytes.HasPrefix(k, prefix) {
					return nil
				}
				p, err := postingAt(k, len(prefix))
				if err != nil {
					return err
				}
				if !fn(p) {
					return nil
				}
			}
		}
		if leaf.next == 0 {
			return nil
		}
		var err error
		if leaf, err = get(leaf.next); err != nil {
			return err
		}
		i = 0
	}
}

// Get implements Store.
func (t *BTree) Get(term string) (postings.List, error) {
	var out postings.List
	err := t.Scan(term, sid.MinPosting, func(p sid.Posting) bool {
		out = append(out, p)
		return true
	})
	return out, err
}

// Count implements Store.
func (t *BTree) Count(term string) (int, error) {
	n := 0
	err := t.Scan(term, sid.MinPosting, func(sid.Posting) bool { n++; return true })
	return n, err
}

// Delete implements Store. Underflowing pages are left in place.
func (t *BTree) Delete(term string, p sid.Posting) error {
	key, err := encodeKey(term, p)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if _, err := t.deleteKey(key); err != nil {
		return err
	}
	return t.pager.commit()
}

// deleteKey removes one key if present (no commit). The markDirty
// precedes the splice so live snapshots keep the pre-image, and the
// splice rebuilds the pointer array instead of shifting in place —
// snapshot clones share it.
func (t *BTree) deleteKey(key []byte) (bool, error) {
	leaf, i, err := t.seek(key)
	if err != nil {
		return false, err
	}
	if i >= len(leaf.keys) || !bytes.Equal(leaf.keys[i], key) {
		return false, nil
	}
	t.pager.markDirty(leaf)
	nk := make([][]byte, 0, len(leaf.keys)-1)
	nk = append(nk, leaf.keys[:i]...)
	nk = append(nk, leaf.keys[i+1:]...)
	leaf.keys = nk
	return true, nil
}

// DeleteTerm implements Store by deleting the term's key range as ONE
// transaction: every matching key is removed under a single lock hold
// and a single pager commit, so a crash mid-way leaves either the whole
// term or none of it — never a partially deleted posting list. (The
// previous implementation issued one commit per posting; the
// crash-injection property test caught the partial states it left
// behind.)
func (t *BTree) DeleteTerm(term string) error {
	prefix := termPrefix(term)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	leaf, i, err := t.seek(prefix)
	if err != nil {
		return err
	}
	deleted := false
	for {
		j := i
		for j < len(leaf.keys) && bytes.HasPrefix(leaf.keys[j], prefix) {
			j++
		}
		if j > i {
			t.pager.markDirty(leaf)
			nk := make([][]byte, 0, len(leaf.keys)-(j-i))
			nk = append(nk, leaf.keys[:i]...)
			nk = append(nk, leaf.keys[j:]...)
			leaf.keys = nk
			deleted = true
		}
		if i < len(leaf.keys) || leaf.next == 0 {
			// Hit a key past the prefix range, or ran out of leaves.
			break
		}
		leaf, err = t.pager.get(leaf.next)
		if err != nil {
			return err
		}
		i = 0
	}
	if !deleted {
		return nil
	}
	return t.pager.commit()
}

// ApplyBatch implements Store: every queued Append and Delete lands
// in ONE pager transaction — one WAL append, one commit record, one
// fsync at FsyncAlways — instead of one per Store op. This is the group
// commit behind the publish-throughput win: the per-op cost collapses
// from a synchronous disk flush to a B+-tree insertion.
//
// Atomicity: the WAL's commit record fences the whole batch, so a crash
// mid-batch recovers to all of it or none of it (the torn-batch
// crash-injection test pins this). Every key is validated before any
// page is touched, so a malformed op rejects the batch without leaving
// it half-applied in memory.
func (t *BTree) ApplyBatch(b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	type encOp struct {
		del  bool
		keys [][]byte
	}
	enc := make([]encOp, 0, len(b.ops))
	for _, op := range b.ops {
		e := encOp{del: op.del}
		if op.del {
			k, err := encodeKey(op.term, op.p)
			if err != nil {
				return err
			}
			e.keys = [][]byte{k}
		} else {
			add := op.ps.Clone()
			add.Sort()
			e.keys = make([][]byte, 0, len(add))
			for _, p := range add {
				k, err := encodeKey(op.term, p)
				if err != nil {
					return err
				}
				e.keys = append(e.keys, k)
			}
		}
		enc = append(enc, e)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	for _, e := range enc {
		for _, k := range e.keys {
			if e.del {
				if _, err := t.deleteKey(k); err != nil {
					return err
				}
			} else if err := t.insert(k); err != nil {
				return err
			}
		}
	}
	return t.pager.commit()
}

// Terms implements Store.
func (t *BTree) Terms() ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	var out []string
	leaf, i, err := t.seek([]byte{1})
	if err != nil {
		return nil, err
	}
	last := ""
	for {
		for ; i < len(leaf.keys); i++ {
			term, _, err := decodeKey(leaf.keys[i])
			if err != nil {
				return nil, err
			}
			if term != last {
				out = append(out, term)
				last = term
			}
		}
		if leaf.next == 0 {
			return out, nil
		}
		leaf, err = t.pager.get(leaf.next)
		if err != nil {
			return nil, err
		}
		i = 0
	}
}

// Close implements Store: it commits and checkpoints pending state,
// then releases the files. A second Close (and any operation after the
// first) returns ErrClosed. Close marks the tree closed even when the
// final flush fails, so a failed close cannot leave the store issuing
// raw OS errors from a dead file descriptor.
func (t *BTree) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	t.closed = true
	return t.pager.close()
}

// Checkpoint forces dirty pages into the page file and truncates the
// WAL, regardless of the CheckpointBytes threshold.
func (t *BTree) Checkpoint() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	return t.pager.checkpoint()
}

// BytesWritten is the bytes the tree has written to its page file and
// its WAL since it was opened.
func (t *BTree) BytesWritten() int64 { return t.pager.written.Load() }

// Stats reports page usage for diagnostics and benchmarks.
func (t *BTree) Stats() (pages int, height int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0, 0
	}
	pages = t.pager.pageCount()
	h := 1
	cur, err := t.pager.get(t.root)
	for err == nil && cur.typ == pageBranch {
		h++
		cur, err = t.pager.get(cur.children[0])
	}
	return pages, h
}
