package store

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// pageSize is the on-disk page size of the B+-tree.
const pageSize = 4096

// pageCRCOff is where a page's CRC32-C footer lives; the checksum
// covers everything before it. A checksum mismatch on read means a torn
// or corrupted write — recovery rewrites such pages from the WAL.
const pageCRCOff = pageSize - 4

// softPageFill triggers a split when a page's serialised size exceeds
// this fraction of pageSize. Entries are bounded by maxEntryLen, so one
// more insertion always still fits in the page (payloads are capped at
// pageCRCOff to leave room for the checksum footer).
const softPageFill = pageSize - maxKeyLen - 64

// maxEntryLen caps the serialised size of one page entry — a leaf's key
// and run, or a branch's separator and child pointer, each with its
// length prefixes — at the room softPageFill leaves below the footer.
// It also keeps a byte-balanced leaf split under softPageFill: each half
// holds at most (softPageFill + 2·maxEntryLen)/2 bytes.
const maxEntryLen = pageCRCOff - softPageFill

// cacheLimit caps the number of pages kept in memory; beyond it, the
// least-recently-used committed page is evicted (committed dirty pages
// are written back first — their redo images are already in the WAL, so
// an in-place write cannot lose committed state).
const cacheLimit = 2048

// page is the in-memory form of one on-disk page. A leaf holds entries:
// a key, term NUL fence, and its value, the run the fence ends
// (btree.go). A branch holds bare separator keys and child pointers.
type page struct {
	id       uint32
	typ      byte     // pageLeaf or pageBranch
	keys     [][]byte // sorted
	vals     [][]byte // leaf only: the run of each key
	children []uint32 // branch only: len(keys)+1 entries
	next     uint32   // leaf only: right sibling (0 = none)
	dirty    bool     // modified since the last checkpoint
	lru      *list.Element

	// shared is the read-only clone every snapshot resolving this page
	// from the live cache uses (snapshot.go); nil until one does. It is
	// guarded by snapMu, dropped by markDirty — which reuses it as the
	// page's pre-image — and on eviction, so the cache bounds it.
	shared *page
}

// childIndex returns the index of the child subtree that may contain
// key: the first separator greater than key routes left of it.
func (p *page) childIndex(key []byte) int {
	i := 0
	for i < len(p.keys) && compareBytes(p.keys[i], key) <= 0 {
		i++
	}
	return i
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// overflows reports whether the page's serialised form exceeds the
// split threshold.
func (p *page) overflows() bool { return p.serializedSize() > softPageFill }

func (p *page) serializedSize() int {
	n := 1 + 2 + 4 // type, nkeys, next
	for _, k := range p.keys {
		n += 2 + len(k)
	}
	for _, v := range p.vals {
		n += 2 + len(v)
	}
	if p.typ == pageBranch {
		n += 4 * len(p.children)
	}
	return n
}

// entrySize is the serialised size of a leaf entry.
func entrySize(key, val []byte) int { return 4 + len(key) + len(val) }

// serialize renders the page into a pageSize buffer, checksum included.
func (p *page) serialize() ([]byte, error) {
	if sz := p.serializedSize(); sz > pageCRCOff {
		return nil, fmt.Errorf("store: pager: page %d overflows page size (%d bytes)", p.id, sz)
	}
	buf := make([]byte, pageSize)
	buf[0] = p.typ
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(p.keys)))
	binary.LittleEndian.PutUint32(buf[3:], p.next)
	off := 7
	put := func(b []byte) {
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(b)))
		off += 2
		off += copy(buf[off:], b)
	}
	for i, k := range p.keys {
		put(k)
		if p.typ == pageLeaf {
			put(p.vals[i])
		}
	}
	if p.typ == pageBranch {
		for _, c := range p.children {
			binary.LittleEndian.PutUint32(buf[off:], c)
			off += 4
		}
	}
	binary.LittleEndian.PutUint32(buf[pageCRCOff:], crc32.Checksum(buf[:pageCRCOff], castagnoli))
	return buf, nil
}

// deserialize parses a pageSize buffer into p, verifying the checksum.
// The entries alias buf, which the caller hands over.
func (p *page) deserialize(buf []byte) error {
	if len(buf) != pageSize {
		return fmt.Errorf("store: pager: short page read (%d bytes)", len(buf))
	}
	if want := binary.LittleEndian.Uint32(buf[pageCRCOff:]); crc32.Checksum(buf[:pageCRCOff], castagnoli) != want {
		return fmt.Errorf("store: pager: page %d checksum mismatch (torn write?)", p.id)
	}
	p.typ = buf[0]
	if err := checkPageType(p.typ); err != nil {
		return fmt.Errorf("store: pager: page %d: %w", p.id, err)
	}
	n := int(binary.LittleEndian.Uint16(buf[1:]))
	p.next = binary.LittleEndian.Uint32(buf[3:])
	off := 7
	field := func() ([]byte, error) {
		if off+2 > pageCRCOff {
			return nil, fmt.Errorf("store: pager: page %d truncated", p.id)
		}
		l := int(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		if off+l > pageCRCOff {
			return nil, fmt.Errorf("store: pager: page %d entry overruns page", p.id)
		}
		off += l
		return buf[off-l : off : off], nil
	}
	p.keys = make([][]byte, 0, n)
	if p.typ == pageLeaf {
		p.vals = make([][]byte, 0, n)
	}
	for i := 0; i < n; i++ {
		k, err := field()
		if err != nil {
			return err
		}
		p.keys = append(p.keys, k)
		if p.typ == pageLeaf {
			v, err := field()
			if err != nil {
				return err
			}
			p.vals = append(p.vals, v)
		}
	}
	if p.typ == pageBranch {
		p.children = make([]uint32, 0, n+1)
		for i := 0; i <= n; i++ {
			if off+4 > pageCRCOff {
				return fmt.Errorf("store: pager: page %d children overrun page", p.id)
			}
			p.children = append(p.children, binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
	}
	return nil
}

// pager manages the page file and its write-ahead log. Page 0 is the
// metadata page (magic, root id, page count, checkpoint LSN, checksum);
// data pages start at id 1.
//
// Durability protocol (redo-only, no-steal for uncommitted pages):
//
//   - Every Store operation is one transaction. markDirty collects the
//     pages it touches; commit appends their images plus an LSN-stamped
//     commit record to the WAL in a single write, then fsyncs per the
//     policy. The page file is NOT written on the commit path.
//   - Pages modified by an in-flight (uncommitted) transaction are
//     pinned in the cache; eviction may write back committed dirty
//     pages (their redo images are in the WAL) but never uncommitted
//     ones, so the page file never holds uncommitted state.
//   - checkpoint fences the meta page behind the data pages: flush all
//     dirty pages, fsync, write meta (root/npages/LSN), fsync, then
//     truncate the WAL. A crash at any point replays cleanly: before
//     the meta write the old meta plus the WAL reproduce the state;
//     after it the WAL replay is a no-op by LSN comparison.
//   - Open-time recovery (recovery.go) replays the committed WAL
//     prefix and discards the torn tail.
type pager struct {
	f    file
	wal  *wal
	opts Options

	npages uint32 // data pages allocated (excluding meta)
	root   uint32
	lsn    uint64 // last committed LSN
	cache  map[uint32]*page
	order  *list.List       // LRU: front = most recent
	tx     map[uint32]*page // pages dirtied by the in-flight transaction
	ioErr  error            // sticky commit/checkpoint failure

	written atomic.Int64 // bytes written to the page file and the WAL

	// Snapshot machinery (snapshot.go). snapMu is a leaf lock guarding
	// the cache map, the LRU list, page write-back and the snapshot
	// registry — the structures snapshot readers touch without holding
	// the tree's writer lock. The writer holds it only for short
	// bookkeeping sections, never across I/O on the commit path.
	//
	// committedRoot/committedNPages are the last committed generation
	// and txUndo holds the committed pre-images of every page the
	// in-flight transaction has dirtied (ids within that generation).
	// Together they let Snapshot() pin the committed generation at any
	// instant — even mid-transaction — without touching the tree's
	// writer lock: a snapshot taken mid-flight starts from the copied
	// txUndo overlay, and markDirty keeps feeding it pre-images for
	// pages dirtied later. snapErr/snapClosed mirror ioErr/closed into
	// snapMu's domain so snapshot creation never reads writer state.
	snapMu          sync.Mutex
	snaps           map[uint64]*snapState
	snapSeq         uint64
	committedRoot   uint32
	committedNPages uint32
	txUndo          map[uint32]*page
	snapErr         error
	snapClosed      bool
}

var (
	pagerMagic   = [8]byte{'K', 'A', 'D', 'O', 'P', 'B', 'T', '3'}
	pagerMagicV1 = [8]byte{'K', 'A', 'D', 'O', 'P', 'B', 'T', '1'}
	pagerMagicV2 = [8]byte{'K', 'A', 'D', 'O', 'P', 'B', 'T', '2'}
)

// errOldFormat is the error for a file an earlier page format wrote.
func errOldFormat(path, what string) error {
	return fmt.Errorf("store: pager: %s is a %s kadop btree file; rebuild it by republishing", path, what)
}

// checkPageType accepts the page types the v3 format writes. A v2 leaf
// — one key per posting — has a type of its own, so its image is
// refused wherever it turns up: in the page file or in the WAL, which
// carries no version of its own.
func checkPageType(typ byte) error {
	switch typ {
	case pageLeaf, pageBranch:
		return nil
	case pageLeafV2:
		return errV2Leaf
	}
	return fmt.Errorf("invalid page type %d", typ)
}

var errV2Leaf = errors.New("v2 leaf page (one key per posting)")

// walPath names the log that pairs with a page file.
func walPath(path string) string { return path + ".wal" }

func openPager(path string, opts Options) (*pager, uint32, error) {
	opts = opts.withDefaults()
	pg := &pager{
		cache: map[uint32]*page{}, order: list.New(), tx: map[uint32]*page{},
		snaps: map[uint64]*snapState{}, txUndo: map[uint32]*page{},
	}
	// The page file and the WAL both count their writes into pg.written.
	open := opts.open
	opts.open = func(path string) (file, error) {
		f, err := open(path)
		if err != nil {
			return nil, err
		}
		return tallyingFile{f, &pg.written}, nil
	}
	f, err := opts.open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: pager: %w", err)
	}
	pg.f, pg.opts = f, opts
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("store: pager: %w", err)
	}
	metaValid := false
	if size > 0 {
		meta := make([]byte, pageSize)
		if _, err := f.ReadAt(meta, 0); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("store: pager: read meta: %w", err)
		}
		var magic [8]byte
		copy(magic[:], meta)
		switch magic {
		case pagerMagicV1:
			f.Close()
			return nil, 0, errOldFormat(path, "v1 (pre-WAL)")
		case pagerMagicV2:
			f.Close()
			return nil, 0, errOldFormat(path, "v2 (one key per posting)")
		}
		if magic == pagerMagic &&
			binary.LittleEndian.Uint32(meta[pageCRCOff:]) == crc32.Checksum(meta[:pageCRCOff], castagnoli) {
			pg.root = binary.LittleEndian.Uint32(meta[8:])
			pg.npages = binary.LittleEndian.Uint32(meta[12:])
			pg.lsn = binary.LittleEndian.Uint64(meta[16:])
			metaValid = true
		}
		// An invalid meta page is not yet fatal: a crash in the middle
		// of a checkpoint's meta write leaves the WAL intact, and the
		// replay below rebuilds both the pages and the meta.
	}
	pg.wal, err = openWAL(walPath(path), opts)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	recovered, err := pg.recover(metaValid)
	if errors.Is(err, errV2Leaf) {
		err = errOldFormat(path, "v2 (one key per posting)")
	}
	if err != nil {
		pg.wal.close()
		f.Close()
		return nil, 0, err
	}
	if size > 0 && !metaValid && !recovered {
		pg.wal.close()
		f.Close()
		return nil, 0, fmt.Errorf("store: pager: %s has a corrupt meta page and no replayable WAL", path)
	}
	pg.committedRoot = pg.root
	pg.committedNPages = pg.npages
	return pg, pg.root, nil
}

// alloc creates a new empty page of the given type.
func (pg *pager) alloc(typ byte) *page {
	pg.npages++
	p := &page{id: pg.npages, typ: typ}
	pg.insertCache(p)
	pg.markDirty(p)
	return p
}

func (pg *pager) setRoot(id uint32) { pg.root = id }

// insertCache adds p to the cache, evicting LRU pages beyond the
// limit. Callers that hold page pointers across allocations (the insert
// path) rely on those pages having been touched during the current
// descent: with cacheLimit far larger than the tree height, pages at
// the LRU front cannot be evicted by the handful of allocations one
// insertion performs.
func (pg *pager) insertCache(p *page) {
	pg.snapMu.Lock()
	defer pg.snapMu.Unlock()
	p.lru = pg.order.PushFront(p)
	pg.cache[p.id] = p
	for len(pg.cache) > cacheLimit {
		if !pg.evictOne() {
			// No evictable victim (or write-back failed): let the cache
			// grow past the limit; the next checkpoint drains it.
			break
		}
	}
}

// evictOne drops the least-recently-used evictable page. Pages touched
// by the in-flight transaction are pinned (the page file must never see
// uncommitted state); committed dirty pages are written back first —
// safe, because their redo images are already in the WAL. Runs with
// snapMu held (via insertCache), so a snapshot reader can never observe
// the window between the write-back and the cache removal and tear a
// concurrent read of the same disk page.
func (pg *pager) evictOne() bool {
	for e := pg.order.Back(); e != nil; e = e.Prev() {
		victim := e.Value.(*page)
		if _, pinned := pg.tx[victim.id]; pinned {
			continue
		}
		if victim.dirty {
			if err := pg.writePage(victim); err != nil {
				return false
			}
		}
		pg.order.Remove(e)
		delete(pg.cache, victim.id)
		victim.shared = nil
		return true
	}
	return false
}

// get returns the page with the given id, reading it from disk on a
// cache miss.
func (pg *pager) get(id uint32) (*page, error) {
	if id == 0 || id > pg.npages {
		return nil, fmt.Errorf("store: pager: page id %d out of range (have %d)", id, pg.npages)
	}
	pg.snapMu.Lock()
	if p, ok := pg.cache[id]; ok {
		pg.order.MoveToFront(p.lru)
		pg.snapMu.Unlock()
		return p, nil
	}
	pg.snapMu.Unlock()
	buf := make([]byte, pageSize)
	if _, err := pg.f.ReadAt(buf, int64(id)*pageSize); err != nil {
		return nil, fmt.Errorf("store: pager: read page %d: %w", id, err)
	}
	p := &page{id: id}
	if err := p.deserialize(buf); err != nil {
		return nil, err
	}
	pg.insertCache(p)
	return p, nil
}

// markDirty records p as modified by the in-flight transaction. It
// MUST be called before the first mutation of the page in the
// transaction: on the page's first touch, its current (committed) image
// is stashed — into txUndo, so a snapshot created mid-transaction
// starts from the committed generation, and into the overlay of every
// live snapshot that can reach the page — so readers keep seeing the
// generation they pinned while the writer mutates the live page
// lock-free. The clone is shared between all stashes; snapshot overlays
// are read-only. A page's shared snapshot clone already is that image:
// it becomes the pre-image, and the next snapshot to resolve the page
// from the cache after the commit clones the new generation.
func (pg *pager) markDirty(p *page) {
	if _, inTx := pg.tx[p.id]; !inTx {
		pg.snapMu.Lock()
		pre := p.shared
		p.shared = nil
		if p.id <= pg.committedNPages {
			if pre == nil {
				pre = p.clone()
			}
			pg.txUndo[p.id] = pre
		}
		for _, s := range pg.snaps {
			if p.id <= s.npages {
				if _, ok := s.overlay[p.id]; !ok {
					if pre == nil {
						pre = p.clone()
					}
					s.overlay[p.id] = pre
				}
			}
		}
		pg.snapMu.Unlock()
	}
	p.dirty = true
	pg.tx[p.id] = p
}

// writePage writes one page in place (eviction, checkpoint, recovery).
func (pg *pager) writePage(p *page) error {
	buf, err := p.serialize()
	if err != nil {
		return err
	}
	if _, err := pg.f.WriteAt(buf, int64(p.id)*pageSize); err != nil {
		return fmt.Errorf("store: pager: write page %d: %w", p.id, err)
	}
	p.dirty = false
	return nil
}

// commit makes the in-flight transaction durable: the images of every
// page it touched, fenced by an LSN-stamped commit record, go to the
// WAL in one append. Pages stay dirty in the cache until a checkpoint
// copies them into the page file. A transaction that touched nothing
// commits for free.
func (pg *pager) commit() error {
	if pg.ioErr != nil {
		return pg.ioErr
	}
	if len(pg.tx) == 0 {
		return nil
	}
	var buf []byte
	for _, p := range pg.tx {
		img, err := p.serialize()
		if err != nil {
			return err // nothing appended yet: state stays uncommitted
		}
		var rec [4 + pageSize]byte
		binary.LittleEndian.PutUint32(rec[:], p.id)
		copy(rec[4:], img)
		buf = walAppendRecord(buf, walRecPage, rec[:])
	}
	var cr [walCommitPayload]byte
	binary.LittleEndian.PutUint64(cr[:], pg.lsn+1)
	binary.LittleEndian.PutUint32(cr[8:], pg.root)
	binary.LittleEndian.PutUint32(cr[12:], pg.npages)
	buf = walAppendRecord(buf, walRecCommit, cr[:])
	if err := pg.wal.appendTx(buf); err != nil {
		pg.fail(err)
		return err
	}
	pg.lsn++
	pg.tx = map[uint32]*page{}
	// Publish the new committed generation to the snapshot plane: from
	// here on a snapshot pins this root/page-count, and the undo images
	// of the just-committed transaction are obsolete.
	pg.snapMu.Lock()
	pg.committedRoot = pg.root
	pg.committedNPages = pg.npages
	pg.txUndo = map[uint32]*page{}
	pg.snapMu.Unlock()
	if pg.wal.bytes() >= pg.opts.checkpointBytes {
		return pg.checkpoint()
	}
	return nil
}

// fail records a sticky commit/checkpoint error, mirrored into the
// snapshot plane so snapshot creation (which runs without the writer
// lock) refuses as well.
func (pg *pager) fail(err error) {
	pg.ioErr = err
	pg.snapMu.Lock()
	pg.snapErr = err
	pg.snapMu.Unlock()
}

// checkpoint copies all committed dirty pages into the page file,
// fences the meta page behind them, and truncates the WAL. Must only
// run at a transaction boundary (pg.tx empty).
func (pg *pager) checkpoint() error {
	if pg.ioErr != nil {
		return pg.ioErr
	}
	if err := pg.checkpointNoTruncate(); err != nil {
		pg.fail(err)
		return err
	}
	if err := pg.wal.reset(); err != nil {
		pg.fail(err)
		return err
	}
	return nil
}

// checkpointNoTruncate is the page-file half of a checkpoint: flush
// dirty pages, fsync, write meta, fsync. The ordering is the crash
// barrier — the meta page (root/npages) becomes visible only after
// every page it points at is durably in place.
func (pg *pager) checkpointNoTruncate() error {
	for _, p := range pg.cache {
		if p.dirty {
			if err := pg.writePage(p); err != nil {
				return err
			}
		}
	}
	if pg.opts.Fsync != FsyncOff {
		if err := pg.f.Sync(); err != nil {
			return fmt.Errorf("store: pager: sync pages: %w", err)
		}
	}
	if err := pg.writeMeta(); err != nil {
		return err
	}
	if pg.opts.Fsync != FsyncOff {
		if err := pg.f.Sync(); err != nil {
			return fmt.Errorf("store: pager: sync meta: %w", err)
		}
	}
	return nil
}

// writeMeta writes the checksummed metadata page.
func (pg *pager) writeMeta() error {
	meta := make([]byte, pageSize)
	copy(meta, pagerMagic[:])
	binary.LittleEndian.PutUint32(meta[8:], pg.root)
	binary.LittleEndian.PutUint32(meta[12:], pg.npages)
	binary.LittleEndian.PutUint64(meta[16:], pg.lsn)
	binary.LittleEndian.PutUint32(meta[pageCRCOff:], crc32.Checksum(meta[:pageCRCOff], castagnoli))
	if _, err := pg.f.WriteAt(meta, 0); err != nil {
		return fmt.Errorf("store: pager: write meta: %w", err)
	}
	return nil
}

func (pg *pager) pageCount() int { return int(pg.npages) }

func (pg *pager) close() error {
	pg.snapMu.Lock()
	pg.snapClosed = true
	pg.snapMu.Unlock()
	err := pg.commit()
	if err == nil {
		err = pg.checkpoint()
	}
	if werr := pg.wal.close(); err == nil {
		err = werr
	}
	if cerr := pg.f.Close(); err == nil {
		err = cerr
	}
	return err
}
