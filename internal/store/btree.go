package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"kadop/internal/postings"
	"kadop/internal/sid"
)

// BTree is a page-based disk B+-tree clustered by (term, posting), so
// each term's postings form one contiguous, ordered key range — the
// clustered organisation the paper adopts from BerkeleyDB.
//
// A term's list is kept as runs (postings.Run): sorted, non-empty
// pieces of the list in the posting codec. A leaf entry is a key, term
// NUL fence — the run's last posting in fixed-width big-endian, so byte
// order equals posting order — and a value, the run. Keying a run by its
// last posting makes a seek for (term, p) land on the only run that can
// hold p, and lets a holder ship runs as the bytes they are stored as.
// An entry is capped at maxEntryLen, so a run holds a few hundred
// postings and a leaf a few runs. Branch separators are bare keys.
//
// Pages are 4 KiB. Leaves are chained left-to-right for range scans.
// Deleted entries leave pages in place (no rebalancing); a store
// serving a KadoP peer treats document modification as delete +
// insert, and reclaims space by periodic rebuild if ever needed.
type BTree struct {
	mu     sync.Mutex
	pager  *pager
	root   uint32
	closed bool
}

const (
	pageLeafV2 = 1 // a v2 leaf (one key per posting): recognised only to be refused
	pageBranch = 2
	pageLeaf   = 3 // a v3 leaf: keys and runs
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

// checkTerm rejects a term that cannot form a key.
func checkTerm(term string) error {
	if len(term) == 0 || len(term) > maxKeyLen-32 {
		return fmt.Errorf("store: btree: bad term length %d", len(term))
	}
	if strings.IndexByte(term, 0) >= 0 {
		return fmt.Errorf("store: btree: term contains NUL byte")
	}
	return nil
}

// encodeKey builds the composite key: term bytes, a zero separator, and
// the posting in fixed-width big-endian form so that byte order equals
// the canonical posting order.
func encodeKey(term string, p sid.Posting) ([]byte, error) {
	if err := checkTerm(term); err != nil {
		return nil, err
	}
	return makeKey(term, p), nil
}

// makeKey is encodeKey for a term already checked.
func makeKey(term string, p sid.Posting) []byte {
	k := make([]byte, 0, len(term)+1+18)
	k = append(append(k, term...), 0)
	var buf [18]byte
	binary.BigEndian.PutUint32(buf[0:], uint32(p.Peer))
	binary.BigEndian.PutUint32(buf[4:], uint32(p.Doc))
	binary.BigEndian.PutUint32(buf[8:], p.SID.Start)
	binary.BigEndian.PutUint32(buf[12:], p.SID.End)
	binary.BigEndian.PutUint16(buf[16:], p.SID.Level)
	return append(k, buf[:]...)
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

// entryRun reads the run of a leaf entry whose key's term prefix, NUL
// included, is off bytes long.
func entryRun(key, val []byte, off int) (postings.Run, error) {
	last, err := postingAt(key, off)
	if err != nil {
		return postings.Run{}, err
	}
	return postings.ParseRun(val, last)
}

// runCap is the largest run a term's entry may hold: the entry cap less
// the key and the two length prefixes.
func runCap(term string) int { return maxEntryLen - entrySize(nil, nil) - (len(term) + 1 + 18) }

// ---- reads ------------------------------------------------------------

// view is the read side shared by the live tree and its snapshots: the
// root of one generation and the resolver of its page ids.
type view struct {
	root uint32
	page func(uint32) (*page, error)
}

// view returns the live tree's read view; the caller holds t.mu.
func (t *BTree) view() view { return view{root: t.root, page: t.pager.get} }

// seek returns the leaf a descent for key ends at and the index of the
// first entry >= key there, which may be len(keys): the entry is then in
// a later leaf.
func (v view) seek(key []byte) (*page, int, error) {
	cur, err := v.page(v.root)
	if err != nil {
		return nil, 0, err
	}
	for cur.typ == pageBranch {
		cur, err = v.page(cur.children[cur.childIndex(key)])
		if err != nil {
			return nil, 0, err
		}
	}
	i := sort.Search(len(cur.keys), func(i int) bool { return bytes.Compare(cur.keys[i], key) >= 0 })
	return cur, i, nil
}

// runs calls fn with the term's runs in order, from the first whose
// fence is >= from — the only run that can hold from — until fn returns
// false or an error. The runs alias the pinned pages.
//
// The walk starts at an entry carrying the term's prefix and entries
// are sorted, so when a leaf's last entry carries the prefix every
// entry from the walk position on does: the prefix is checked once per
// such leaf, and entry by entry only in the leaf where the term ends. A
// leaf with nothing left to read — empty, or entered past its end by
// the seek — passes the walk on to the next one.
func (v view) runs(term string, from sid.Posting, fn func(postings.Run) (bool, error)) error {
	start, err := encodeKey(term, from)
	if err != nil {
		return err
	}
	off := len(term) + 1
	prefix := start[:off]
	leaf, i, err := v.seek(start)
	if err != nil {
		return err
	}
	for {
		if n := len(leaf.keys); i < n {
			whole := bytes.HasPrefix(leaf.keys[n-1], prefix)
			for ; i < n; i++ {
				k := leaf.keys[i]
				if !whole && !bytes.HasPrefix(k, prefix) {
					return nil
				}
				r, err := entryRun(k, leaf.vals[i], off)
				if err != nil {
					return err
				}
				if more, err := fn(r); !more || err != nil {
					return err
				}
			}
		}
		if leaf.next == 0 {
			return nil
		}
		if leaf, err = v.page(leaf.next); err != nil {
			return err
		}
		i = 0
	}
}

// scan delivers the term's postings from the first >= from.
func (v view) scan(term string, from sid.Posting, fn func(sid.Posting) bool) error {
	first := true
	return v.runs(term, from, func(r postings.Run) (bool, error) {
		more, skip := true, first
		first = false
		err := r.Each(func(p sid.Posting) bool {
			if skip && p.Compare(from) < 0 {
				return true
			}
			more = fn(p)
			return more
		})
		return more, err
	})
}

// get decodes the term's whole list.
func (v view) get(term string) (postings.List, error) {
	var out postings.List
	err := v.runs(term, sid.MinPosting, func(r postings.Run) (bool, error) {
		var err error
		out, err = r.Decode(out)
		return true, err
	})
	return out, err
}

// count sums the term's run headers: O(runs), not O(postings).
func (v view) count(term string) (int, error) {
	n := 0
	err := v.runs(term, sid.MinPosting, func(r postings.Run) (bool, error) {
		n += r.N
		return true, nil
	})
	return n, err
}

// clippedRuns is Reader.Runs: the term's runs clipped to [from, to].
// Runs wholly inside pass as stored; only the (at most two) runs a bound
// cuts are walked and stitched into a scratch buffer.
func (v view) clippedRuns(term string, from, to sid.Posting, fn func(postings.Run) bool) error {
	var scratch postings.Stitcher
	return v.runs(term, from, func(r postings.Run) (bool, error) {
		c, err := r.Clip(from, to, &scratch)
		if err != nil {
			return false, err
		}
		if c.N > 0 && !fn(c) {
			return false, nil
		}
		return r.Last.Compare(to) < 0, nil
	})
}

// terms lists the terms with at least one run, stepping one run at a
// time.
func (v view) terms() ([]string, error) {
	var out []string
	leaf, i, err := v.seek([]byte{1})
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
		if leaf, err = v.page(leaf.next); err != nil {
			return nil, err
		}
		i = 0
	}
}

// read runs fn on the live tree's view under the writer lock.
func (t *BTree) read(fn func(view) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	return fn(t.view())
}

// Scan implements Store.
func (t *BTree) Scan(term string, from sid.Posting, fn func(sid.Posting) bool) error {
	return t.read(func(v view) error { return v.scan(term, from, fn) })
}

// Runs implements Store.
func (t *BTree) Runs(term string, from, to sid.Posting, fn func(postings.Run) bool) error {
	return t.read(func(v view) error { return v.clippedRuns(term, from, to, fn) })
}

// Get implements Store.
func (t *BTree) Get(term string) (out postings.List, err error) {
	err = t.read(func(v view) error { out, err = v.get(term); return err })
	return out, err
}

// Count implements Store.
func (t *BTree) Count(term string) (n int, err error) {
	err = t.read(func(v view) error { n, err = v.count(term); return err })
	return n, err
}

// Terms implements Store.
func (t *BTree) Terms() (out []string, err error) {
	err = t.read(func(v view) error { out, err = v.terms(); return err })
	return out, err
}

// ---- writes -----------------------------------------------------------

// Append implements Store. The sorted postings are grouped by the run
// they fall into — the first whose fence is >= them, or the term's last
// run for those past every fence — and each touched run is merged,
// re-encoded, cut at the entry cap and its entries replaced: O(len(ps) ·
// log N + touched runs × cap), independent of the term's list size.
func (t *BTree) Append(term string, ps postings.List) error {
	if len(ps) == 0 {
		return nil
	}
	if err := checkTerm(term); err != nil {
		return err
	}
	add := sortedUnique(ps)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if err := t.appendRuns(term, add); err != nil {
		return err
	}
	return t.pager.commit()
}

// sortedUnique returns a sorted, duplicate-free copy of ps.
func sortedUnique(ps postings.List) postings.List {
	add := ps.Clone()
	add.Sort()
	return add.Dedup()
}

// appendRuns merges the sorted, duplicate-free postings into the term's
// runs (no commit). A run past whose fence the postings go — the term's
// last — is extended by its bytes, not decoded.
func (t *BTree) appendRuns(term string, add postings.List) error {
	max := runCap(term)
	var st postings.Stitcher
	for len(add) > 0 {
		key, r, tail, err := t.runFor(term, add[0])
		if err != nil {
			return err
		}
		st.Reset()
		var group postings.List // what the touched run takes after st's postings
		switch {
		case key == nil: // the term's first run
			group, add = add, nil
		case tail: // extended by its bytes
			group, add = add, nil
			if err := st.AddRun(r, 0, r.N); err != nil {
				return err
			}
		default:
			n := sort.Search(len(add), func(i int) bool { return add[i].Compare(r.Last) > 0 })
			cur, err := r.Decode(make(postings.List, 0, r.N+n))
			if err != nil {
				return err
			}
			group = postings.MergeUnique(cur, add[:n])
			add = add[n:]
			if len(group) == r.N { // all there already
				continue
			}
		}
		if err := t.replaceRun(term, key, packRuns(&st, group, max)); err != nil {
			return err
		}
	}
	return nil
}

// packRuns appends the sorted postings to the list st holds, cutting it
// into runs of at most max bytes; the runs own fresh copies of their
// bytes.
func packRuns(st *postings.Stitcher, ps postings.List, max int) []postings.Run {
	var out []postings.Run
	emit := func() {
		r := st.Run()
		r.Data = append([]byte(nil), r.Data...)
		out = append(out, r)
		st.Reset()
	}
	for _, p := range ps {
		if st.Len() > 0 && !st.Fits(p, max) {
			emit()
		}
		st.Add(p)
	}
	if st.Len() > 0 {
		emit()
	}
	return out
}

// runFor finds the run a posting p of term belongs in: the first run
// whose fence is >= p — the only one that can hold p — or, when p is past
// every fence, the term's last run (tail). A nil key means the term has
// no run.
func (t *BTree) runFor(term string, p sid.Posting) (key []byte, r postings.Run, tail bool, err error) {
	k, err := encodeKey(term, p)
	if err != nil {
		return nil, r, false, err
	}
	off := len(term) + 1
	leaf, i, err := t.view().seek(k)
	for err == nil && i == len(leaf.keys) && leaf.next != 0 {
		leaf, err = t.pager.get(leaf.next)
		i = 0
	}
	if err != nil {
		return nil, r, false, err
	}
	var val []byte
	if i < len(leaf.keys) && bytes.HasPrefix(leaf.keys[i], k[:off]) {
		key, val = leaf.keys[i], leaf.vals[i]
	} else {
		// No fence at or past p: the term's last run, if it has one, is
		// the entry before k.
		if key, val, err = t.floor(t.root, k); err != nil || key == nil || !bytes.HasPrefix(key, k[:off]) {
			return nil, r, false, err
		}
		tail = true
	}
	r, err = entryRun(key, val, off)
	return key, r, tail, err
}

// floor returns the last entry below key in the subtree rooted at id, or
// a nil key. Leaves emptied by deletes are passed over.
func (t *BTree) floor(id uint32, key []byte) ([]byte, []byte, error) {
	p, err := t.pager.get(id)
	if err != nil {
		return nil, nil, err
	}
	if p.typ == pageLeaf {
		i := sort.Search(len(p.keys), func(i int) bool { return bytes.Compare(p.keys[i], key) >= 0 })
		if i == 0 {
			return nil, nil, nil
		}
		return p.keys[i-1], p.vals[i-1], nil
	}
	for c := p.childIndex(key); c >= 0; c-- {
		k, v, err := t.floor(p.children[c], key)
		if k != nil || err != nil {
			return k, v, err
		}
	}
	return nil, nil, nil
}

// replaceRun writes runs in place of the entry at old (nil: none). The
// runs cover old's postings, so their keys fall between old's
// neighbours. Unless the last run keeps old's key — its value then
// overwrites old's — old is removed first.
func (t *BTree) replaceRun(term string, old []byte, runs []postings.Run) error {
	keys := make([][]byte, len(runs))
	for i, r := range runs {
		keys[i] = makeKey(term, r.Last)
	}
	if old != nil && (len(keys) == 0 || !bytes.Equal(keys[len(keys)-1], old)) {
		if err := t.remove(old); err != nil {
			return err
		}
	}
	for i, r := range runs {
		if err := t.put(keys[i], r.Data); err != nil {
			return err
		}
	}
	return nil
}

// descend returns the leaf a descent for key ends at and the path of
// branches above it with the child index taken at each.
func (t *BTree) descend(key []byte) (*page, []pathEntry, error) {
	var path []pathEntry
	cur, err := t.pager.get(t.root)
	if err != nil {
		return nil, nil, err
	}
	for cur.typ == pageBranch {
		i := cur.childIndex(key)
		path = append(path, pathEntry{cur, i})
		if cur, err = t.pager.get(cur.children[i]); err != nil {
			return nil, nil, err
		}
	}
	return cur, path, nil
}

type pathEntry struct {
	page *page
	idx  int // child index taken
}

// put sets key's value, inserting the entry if it is absent, and splits
// pages up the path while they overflow. markDirty precedes the
// mutation: it stashes the page's committed image for live snapshots
// (copy-on-write). An existing key is always found by the descent: the
// separators bound every subtree's keys.
func (t *BTree) put(key, val []byte) error {
	cur, path, err := t.descend(key)
	if err != nil {
		return err
	}
	i := sort.Search(len(cur.keys), func(i int) bool { return bytes.Compare(cur.keys[i], key) >= 0 })
	t.pager.markDirty(cur)
	if i < len(cur.keys) && bytes.Equal(cur.keys[i], key) {
		cur.vals[i] = val
	} else {
		cur.keys = slices.Insert(cur.keys, i, key)
		cur.vals = slices.Insert(cur.vals, i, val)
	}

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
		t.pager.markDirty(p)
		p.keys = slices.Insert(p.keys, parent.idx, sep)
		p.children = slices.Insert(p.children, parent.idx+1, right.id)
		cur = p
	}
	return nil
}

// remove deletes key's entry if present (no commit). Underflowing pages
// are left in place.
func (t *BTree) remove(key []byte) error {
	leaf, _, err := t.descend(key)
	if err != nil {
		return err
	}
	i := sort.Search(len(leaf.keys), func(i int) bool { return bytes.Compare(leaf.keys[i], key) >= 0 })
	if i < len(leaf.keys) && bytes.Equal(leaf.keys[i], key) {
		t.pager.markDirty(leaf)
		leaf.keys = slices.Delete(leaf.keys, i, i+1)
		leaf.vals = slices.Delete(leaf.vals, i, i+1)
	}
	return nil
}

// split divides an overflowing page in two and returns the new right
// sibling and the separator key (smallest key routed to the right). A
// leaf splits where its bytes balance, which maxEntryLen keeps each
// half under softPageFill; a branch splits at its middle key.
func (t *BTree) split(p *page) (*page, []byte) {
	// Mark p before moving entries out of it (copy-on-write pre-image);
	// right is fresh, so alloc's markDirty suffices for it.
	t.pager.markDirty(p)
	right := t.pager.alloc(p.typ)
	var sep []byte
	if p.typ == pageLeaf {
		mid := leafSplit(p)
		right.keys = append(right.keys, p.keys[mid:]...)
		right.vals = append(right.vals, p.vals[mid:]...)
		p.keys, p.vals = p.keys[:mid], p.vals[:mid]
		sep = append([]byte(nil), right.keys[0]...)
		right.next = p.next
		p.next = right.id
	} else {
		// Branch: the middle key moves up, not right.
		mid := len(p.keys) / 2
		sep = append([]byte(nil), p.keys[mid]...)
		right.keys = append(right.keys, p.keys[mid+1:]...)
		right.children = append(right.children, p.children[mid+1:]...)
		p.keys = p.keys[:mid]
		p.children = p.children[:mid+1]
	}
	return right, sep
}

// leafSplit returns the number of entries that stay left when leaf p
// splits: of the two cut points around half its bytes, the one whose
// larger side is smaller. Both sides keep at least one entry.
func leafSplit(p *page) int {
	total := 0
	for i, k := range p.keys {
		total += entrySize(k, p.vals[i])
	}
	left, k := 0, 0
	for k < len(p.keys) && 2*left < total {
		left += entrySize(p.keys[k], p.vals[k])
		k++
	}
	// left bytes sit in the first k entries; k-1 entries leave total-prev.
	prev := left - entrySize(p.keys[k-1], p.vals[k-1])
	if k > 1 && total-prev < left {
		k--
	}
	return min(max(k, 1), len(p.keys)-1)
}

// Delete implements Store: it rewrites or drops the one run that can
// hold p.
func (t *BTree) Delete(term string, p sid.Posting) error {
	if err := checkTerm(term); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if err := t.deletePosting(term, p); err != nil {
		return err
	}
	return t.pager.commit()
}

// deletePosting removes one posting if present (no commit).
func (t *BTree) deletePosting(term string, p sid.Posting) error {
	key, r, tail, err := t.runFor(term, p)
	if err != nil || key == nil || tail {
		return err // no run can hold p
	}
	l, err := r.Decode(make(postings.List, 0, r.N))
	if err != nil {
		return err
	}
	i := sort.Search(len(l), func(i int) bool { return l[i].Compare(p) >= 0 })
	if i == len(l) || l[i] != p {
		return nil
	}
	l = slices.Delete(l, i, i+1)
	var st postings.Stitcher
	return t.replaceRun(term, key, packRuns(&st, l, runCap(term)))
}

// DeleteTerm implements Store by deleting the term's key range as ONE
// transaction: every matching entry is removed under a single lock hold
// and a single pager commit, so a crash mid-way leaves either the whole
// term or none of it — never a partially deleted posting list. (The
// previous implementation issued one commit per posting; the
// crash-injection property test caught the partial states it left
// behind.)
func (t *BTree) DeleteTerm(term string) error {
	prefix := append([]byte(term), 0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	leaf, i, err := t.view().seek(prefix)
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
			leaf.keys = slices.Delete(leaf.keys, i, j)
			leaf.vals = slices.Delete(leaf.vals, i, j)
			deleted = true
		}
		if i < len(leaf.keys) || leaf.next == 0 {
			// Hit a key past the prefix range, or ran out of leaves.
			break
		}
		if leaf, err = t.pager.get(leaf.next); err != nil {
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
// from a synchronous disk flush to a few run rewrites.
//
// Atomicity: the WAL's commit record fences the whole batch, so a crash
// mid-batch recovers to all of it or none of it (the torn-batch
// crash-injection test pins this). Every term is validated before any
// page is touched, so a malformed op rejects the batch without leaving
// it half-applied in memory.
func (t *BTree) ApplyBatch(b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	adds := make([]postings.List, len(b.ops))
	for i, op := range b.ops {
		if err := checkTerm(op.term); err != nil {
			return err
		}
		if !op.del {
			adds[i] = sortedUnique(op.ps)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	for i, op := range b.ops {
		var err error
		if op.del {
			err = t.deletePosting(op.term, op.p)
		} else {
			err = t.appendRuns(op.term, adds[i])
		}
		if err != nil {
			return err
		}
	}
	return t.pager.commit()
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
// WAL, regardless of the checkpointBytes threshold.
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
