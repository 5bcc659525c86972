// Package dpp implements Distributed Posting Partitioning (Section 4 of
// the paper): long posting lists are split horizontally by range
// conditions into blocks that migrate to other peers, so that a query
// peer can fetch a popular term's list from many peers in parallel and
// skip blocks whose condition cannot contribute to the query.
//
// The organisation follows the paper's two-level implementation: the
// peer in charge of a term keeps the root block — the ordered list of
// conditions [lo, hi] with a pseudo-key per block — while the blocks
// themselves live at the peers in charge of the pseudo-keys
// "overflow:<n>:<term>". A block that outgrows the bound splits in two,
// one half moving to a fresh pseudo-key, and the root replaces the old
// condition with the two new ones.
//
// Fetching applies the document-interval filtering of Section 4.2:
// given the roots of all the query's terms, only blocks intersecting
// the interval [min, max] of document identifiers common to all terms
// are transferred, and each block ships only its intersection with that
// interval.
package dpp

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"kadop/internal/blockcache"
	"kadop/internal/dht"
	"kadop/internal/obs/cost"
	"kadop/internal/postings"
	"kadop/internal/replicate"
	"kadop/internal/sid"
)

// Proc names registered on every peer. The index: prefix routes the
// traffic accounting of publishing; blocks transfer over the DHT's own
// batched get (dht.MsgGetBatch), not a procedure.
const (
	ProcAppend = "index:dpp:append"
	ProcRoot   = "dpp:root"
)

// DefaultBlockSize is the default bound on postings per block. The
// paper uses 4 MB blocks; at ~4 bytes per encoded posting this
// default models the same magnitude scaled to the experiments here.
const DefaultBlockSize = 4096

// BlockRef is one root-block entry: the condition [Lo, Hi] (in posting
// order), the pseudo-key of the block, the address of the peer holding
// it (the materialised pointer of the paper's ϕ function — fetches go
// straight to the holder instead of re-routing the pseudo-key), and
// its size.
type BlockRef struct {
	Lo, Hi sid.Posting
	Key    string
	Owner  string
	Count  int
	// Gen is the block's generation, bumped by every append or delete
	// that touches the block. Query peers key their block cache by
	// (term, key, gen), so a mutation makes every cached copy of the
	// block unreachable without any invalidation traffic: the next root
	// fetch carries the new generation.
	Gen uint64
	// Types are the document types present in the block (Section 4.1:
	// conditions carry type information so queries can skip blocks whose
	// types cannot match). Empty means untyped content: never skipped.
	Types []string
	// Replicas are extra peers currently advertised as holding a pushed
	// copy of this block (adaptive hot-term replication). Attached by
	// the home peer at serve time from its leased advertisements; never
	// part of the persisted root state.
	Replicas []string
}

// Root is the root DPP block for one term. A term that has not
// overflowed has no blocks; its list is inline at the home peer, and
// Count/Lo/Hi summarise it so the query planner can still compute the
// document-interval filter of Section 4.2.
type Root struct {
	Term    string
	Ordered bool // false for the randomised-split ablation
	Blocks  []BlockRef
	Count   int         // inline only: posting count
	Lo, Hi  sid.Posting // inline only: list bounds (when Count > 0)
	// Gen is the inline list's generation (see BlockRef.Gen); it tracks
	// appends and deletes while the term has not overflowed.
	Gen uint64
	// Types are the document types of the term's postings (inline or
	// across all blocks); empty means untyped.
	Types []string
	// Replicas are extra peers advertised as holding a pushed copy of
	// the inline list (see BlockRef.Replicas).
	Replicas []string
	// Home is the address of the peer that served this root — the holder
	// of an inline list, which therefore streams from it without another
	// lookup. Set on receipt; never on the wire or in persisted state.
	Home string
}

// Postings is the term's posting count as the root records it: the
// inline list's, or the sum over the blocks'.
func (r *Root) Postings() int {
	n := r.Count
	for _, b := range r.Blocks {
		n += b.Count
	}
	return n
}

// maxTrackedTypes caps per-condition type sets; content with more
// distinct types degrades to untyped (never skipped), which keeps the
// filter conservative.
const maxTrackedTypes = 16

// addType inserts a type into a sorted set under the cap. The second
// return is false when the set overflowed and must be treated as
// untyped.
func addType(set []string, t string) ([]string, bool) {
	if t == "" {
		return set, true
	}
	for _, x := range set {
		if x == t {
			return set, true
		}
	}
	if len(set) >= maxTrackedTypes {
		return set, false
	}
	// Copy on write: roots served outside the manager lock share the
	// old array.
	set = append(set[:len(set):len(set)], t)
	sort.Strings(set)
	return set, true
}

// typeMatches reports whether a condition's type set admits any of the
// allowed types (nil allowed or nil set means no constraint).
func typeMatches(set, allowed []string) bool {
	if len(set) == 0 || allowed == nil {
		return true
	}
	for _, a := range allowed {
		for _, s := range set {
			if a == s {
				return true
			}
		}
	}
	return false
}

// Manager runs the DPP logic on one peer: the home-side maintenance of
// roots and blocks, and the query-side parallel fetch. Register must be
// called once per peer so the manager's procedures are reachable.
type Manager struct {
	node      *dht.Node
	blockSize int
	ordered   bool
	cache     *blockcache.Cache

	persistPath string // "" = memory-only

	now func() time.Time

	mu          sync.Mutex
	roots       map[string]*Root
	inlineTypes map[string][]string // term -> types of its inline list
	inlineGen   map[string]uint64   // term -> inline list generation
	next        int                 // pseudo-key counter
	// ads holds the leased replica advertisements installed by
	// replication controllers (keyed by store key). Runtime-only state:
	// leases expire on their own, so it is never persisted.
	ads map[string]adEntry

	selMu sync.Mutex
	sel   *rand.Rand // replica-selection randomness (seeded)
}

// adEntry is one leased replica advertisement.
type adEntry struct {
	replicas []string
	count    uint64
	expire   int64 // unix nanoseconds
}

// Options configure a Manager.
type Options struct {
	// BlockSize bounds postings per block (DefaultBlockSize if 0).
	BlockSize int
	// RandomSplit selects the randomised split ablation of Section 4.1:
	// blocks still distribute across peers but carry no order, so
	// fetches must merge and cannot filter by condition.
	RandomSplit bool
	// Cache, when non-nil, caches fetched posting blocks at this peer
	// keyed by (term, block, generation), coalesces concurrent fetches
	// of the same block, and switches block transfers to full blocks
	// clipped client-side so cached copies are reusable across queries
	// with different document intervals.
	Cache *blockcache.Cache
	// PersistPath, when set, makes the home-side DPP state durable: the
	// root blocks, inline-list metadata and the pseudo-key counter are
	// rewritten (atomically) to this file after every mutation and
	// reloaded on construction, so a restarted peer still knows where
	// its terms' overflow blocks live. The blocks themselves are index
	// postings and persist through the node's store.
	PersistPath string
	// Now injects a clock for advertisement-lease checks (default
	// time.Now; the experiments drive it synthetically).
	Now func() time.Time
	// Seed drives the replica-selection randomness of the fetch path
	// (default 1, so seeded runs pick reproducible replicas).
	Seed int64
}

// NewManager creates the DPP manager for a node and registers its
// procedures on the node. With Options.PersistPath set it reloads the
// previously persisted root state; a corrupt or unreadable state file
// fails construction rather than silently forgetting block placements.
func NewManager(node *dht.Node, opts Options) (*Manager, error) {
	bs := opts.BlockSize
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	m := &Manager{node: node, blockSize: bs, ordered: !opts.RandomSplit,
		cache: opts.Cache, persistPath: opts.PersistPath,
		roots: map[string]*Root{}, inlineTypes: map[string][]string{},
		inlineGen: map[string]uint64{}, ads: map[string]adEntry{},
		now: opts.Now}
	if m.now == nil {
		m.now = time.Now
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	m.sel = rand.New(rand.NewSource(seed + 0x9e1ec7))
	if err := m.load(); err != nil {
		return nil, err
	}
	node.Handle(ProcAppend, m.handleAppend)
	node.Handle(ProcDelete, m.handleDelete)
	node.Handle(ProcRoot, m.handleRoot)
	node.Handle(replicate.ProcAdvert, m.handleAdvert)
	return m, nil
}

// Cache returns the manager's block cache (nil when caching is off),
// for stats surfacing on the admin endpoint and in experiments.
func (m *Manager) Cache() *blockcache.Cache { return m.cache }

// Append routes postings for a term through the term's home peer, which
// maintains the DPP structure. It is the publishing-side entry point.
func (m *Manager) Append(ctx context.Context, term string, ps postings.List) error {
	return m.AppendTyped(ctx, term, ps, "")
}

// AppendTyped is Append for postings of a typed document (Section 4.1):
// the type is recorded in the conditions of the blocks that receive the
// postings, so queries constrained to other types skip them.
func (m *Manager) AppendTyped(ctx context.Context, term string, ps postings.List, dtype string) error {
	if len(ps) == 0 {
		return nil
	}
	sorted := ps.Clone()
	sorted.Sort()
	blob := appendStr(nil, dtype)
	enc, err := postings.Encode(sorted)
	if err != nil {
		return err
	}
	blob = append(blob, enc...)
	_, err = m.node.CallProc(ctx, term, ProcAppend, blob)
	return err
}

// handleAppend runs at the term's home peer.
func (m *Manager) handleAppend(ctx context.Context, _ dht.Contact, term string, blob []byte) ([]byte, error) {
	dtype, pos, err := readStr(blob, 0)
	if err != nil {
		return nil, fmt.Errorf("dpp: append %q: %w", term, err)
	}
	ps, _, err := postings.Decode(blob[pos:])
	if err != nil {
		return nil, fmt.Errorf("dpp: append %q: %w", term, err)
	}
	if len(ps) == 0 {
		return nil, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.appendLocked(ctx, term, ps, dtype); err != nil {
		return nil, err
	}
	return nil, m.save()
}

// appendLocked applies one append under m.mu.
func (m *Manager) appendLocked(ctx context.Context, term string, ps postings.List, dtype string) error {
	root := m.roots[term]
	if root == nil {
		// Still inline: append locally, then split on overflow.
		if err := m.node.Store().Append(term, ps); err != nil {
			return err
		}
		m.inlineGen[term]++
		set, ok := addType(m.inlineTypes[term], dtype)
		if !ok {
			set = nil
		}
		m.inlineTypes[term] = set
		n, err := m.node.Store().Count(term)
		if err != nil {
			return err
		}
		if n <= m.blockSize {
			return nil
		}
		return m.overflow(ctx, term)
	}
	return m.routeToBlocks(ctx, root, ps, dtype)
}

// overflow converts an inline list into a DPP of bound-respecting
// blocks. A list that barely overflowed splits in two (the paper's
// base case); bulk loads split into as many blocks as the bound
// requires.
func (m *Manager) overflow(ctx context.Context, term string) error {
	list, err := m.node.Store().Get(term)
	if err != nil {
		return err
	}
	root := &Root{Term: term, Ordered: m.ordered, Types: m.inlineTypes[term]}
	m.roots[term] = root
	for _, h := range m.partition(list) {
		ref, err := m.placeBlock(ctx, term, h, root.Types)
		if err != nil {
			return err
		}
		root.Blocks = append(root.Blocks, ref)
	}
	return m.node.Store().DeleteTerm(term)
}

// partition divides a sorted list into ceil(n/blockSize) blocks of
// nearly equal size (at least two), each within the bound. Ordered mode
// cuts by ranges; the randomised ablation deals round-robin.
func (m *Manager) partition(list postings.List) []postings.List {
	k := (len(list) + m.blockSize - 1) / m.blockSize
	if k < 2 {
		k = 2
	}
	parts := make([]postings.List, k)
	if m.ordered {
		per := (len(list) + k - 1) / k
		for i := 0; i < k; i++ {
			lo := i * per
			hi := lo + per
			if lo > len(list) {
				lo = len(list)
			}
			if hi > len(list) {
				hi = len(list)
			}
			parts[i] = list[lo:hi]
		}
	} else {
		for i, p := range list {
			parts[i%k] = append(parts[i%k], p)
		}
	}
	out := parts[:0]
	for _, p := range parts {
		if len(p) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// placeBlock ships a new, non-empty block of term to the peer of a
// fresh pseudo-key and returns the reference the root records for it.
func (m *Manager) placeBlock(ctx context.Context, term string, block postings.List, types []string) (BlockRef, error) {
	m.next++
	key := fmt.Sprintf("overflow:%d:%s", m.next, term)
	owner, err := m.node.LocateContext(ctx, key)
	if err != nil {
		return BlockRef{}, err
	}
	if err := m.node.AppendAt(ctx, owner, key, block); err != nil {
		return BlockRef{}, err
	}
	return BlockRef{
		Lo: block[0], Hi: block[len(block)-1], Key: key, Owner: owner.Addr,
		Count: len(block), Types: append([]string(nil), types...),
	}, nil
}

// routeToBlocks distributes sorted postings to the blocks whose
// conditions cover them, widening boundary conditions as needed, and
// splits blocks that exceed the bound.
func (m *Manager) routeToBlocks(ctx context.Context, root *Root, ps postings.List, dtype string) error {
	if len(root.Blocks) == 0 {
		var types []string
		if dtype != "" {
			types = []string{dtype}
		}
		ref, err := m.placeBlock(ctx, root.Term, ps, types)
		if err != nil {
			return err
		}
		root.Blocks = append(root.Blocks, ref)
		return nil
	}
	if !root.Ordered {
		// Random mode: spread arrivals round-robin across blocks.
		parts := make([]postings.List, len(root.Blocks))
		for i, p := range ps {
			j := i % len(root.Blocks)
			parts[j] = append(parts[j], p)
		}
		for i, part := range parts {
			if len(part) == 0 {
				continue
			}
			if err := m.appendToBlock(ctx, root, i, part, dtype); err != nil {
				return err
			}
		}
		return nil
	}
	// Ordered mode: walk blocks and postings together. The block list is
	// re-read every step: a chunk that overflows its block splits it in
	// place, and the pieces' ranges end where the block's did, so the
	// walk passes over them and still reaches every later block.
	i := 0
	for bi := 0; bi < len(root.Blocks) && i < len(ps); bi++ {
		var chunk postings.List
		if bi == len(root.Blocks)-1 {
			chunk = ps[i:] // everything else goes to the last block
			i = len(ps)
		} else {
			hi := root.Blocks[bi].Hi
			j := i
			for j < len(ps) && ps[j].Compare(hi) <= 0 {
				j++
			}
			chunk = ps[i:j]
			i = j
		}
		if len(chunk) == 0 {
			continue
		}
		if err := m.appendToBlock(ctx, root, bi, chunk, dtype); err != nil {
			return err
		}
	}
	return nil
}

// appendToBlock adds a chunk to block bi, widening its condition, and
// splits it if it overflows.
func (m *Manager) appendToBlock(ctx context.Context, root *Root, bi int, chunk postings.List, dtype string) error {
	ref := &root.Blocks[bi]
	if err := m.node.Append(ctx, ref.Key, chunk); err != nil {
		return err
	}
	ref.Gen++
	ref.Count += len(chunk)
	set, ok := addType(ref.Types, dtype)
	if !ok {
		set = nil
	}
	ref.Types = set
	if chunk[0].Compare(ref.Lo) < 0 {
		ref.Lo = chunk[0]
	}
	if chunk[len(chunk)-1].Compare(ref.Hi) > 0 {
		ref.Hi = chunk[len(chunk)-1]
	}
	if ref.Count <= m.blockSize {
		return nil
	}
	return m.splitBlock(ctx, root, bi)
}

// splitBlock fetches an overflowing block, splits it into
// bound-respecting pieces, moves them to fresh pseudo-keys and replaces
// the root condition with the new ones (the C -> C1, C2 step of
// Section 4.1, generalised for bulk appends).
func (m *Manager) splitBlock(ctx context.Context, root *Root, bi int) error {
	old := root.Blocks[bi]
	list, err := m.node.Get(ctx, old.Key)
	if err != nil {
		return err
	}
	if err := m.node.DeleteKey(ctx, old.Key); err != nil {
		return err
	}
	var refs []BlockRef
	for _, h := range m.partition(list) {
		ref, err := m.placeBlock(ctx, root.Term, h, old.Types)
		if err != nil {
			return err
		}
		refs = append(refs, ref)
	}
	root.Blocks = append(root.Blocks[:bi], append(refs, root.Blocks[bi+1:]...)...)
	return nil
}

// handleAdvert installs (or, with an empty replica list, revokes) a
// leased replica advertisement pushed by a replication controller. The
// advertisement's count pins the copy's freshness: handleRoot only
// serves it while the local count still matches, so an append that
// lands after the push silently disables the stale replicas until the
// controller re-pushes and re-advertises.
func (m *Manager) handleAdvert(_ context.Context, _ dht.Contact, _ string, blob []byte) ([]byte, error) {
	ad, err := replicate.DecodeSet(blob)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(ad.Replicas) == 0 || ad.Expire <= m.now().UnixNano() {
		delete(m.ads, ad.Key)
		return nil, nil
	}
	m.ads[ad.Key] = adEntry{replicas: ad.Replicas, count: ad.Count, expire: ad.Expire}
	return nil, nil
}

// adReplicas returns the advertised replicas for a store key if the
// lease is live and the advertised count matches the current one,
// garbage-collecting dead entries. Caller holds m.mu.
func (m *Manager) adReplicas(key string, count int) []string {
	ad, ok := m.ads[key]
	if !ok {
		return nil
	}
	if ad.expire <= m.now().UnixNano() {
		delete(m.ads, key)
		return nil
	}
	if ad.count != uint64(count) {
		return nil
	}
	return ad.replicas
}

// handleRoot serves the root block of a term this peer is home for.
func (m *Manager) handleRoot(_ context.Context, _ dht.Contact, term string, _ []byte) ([]byte, error) {
	root, err := m.LocalRoot(term)
	if err != nil {
		return nil, err
	}
	return encodeRoot(root), nil
}

// LocalRoot is the root block of a term as this peer, its home, would
// serve it. A term that never overflowed reports itself inline, with
// its local list's bounds attached for the document-interval
// computation. Live replica advertisements ride along, so query peers
// learn the extra holders of a hot term from the root fetch they make
// anyway. Home-side code (the reducer steps, the count procedure) calls
// this directly instead of routing a lookup to itself.
func (m *Manager) LocalRoot(term string) (*Root, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if root := m.roots[term]; root != nil {
		return m.withAds(root), nil
	}
	// Summarise the inline list without the lock, so root fetches do not
	// serialise against each other or against appends routed here. An
	// append to this very term landing mid-scan would pair its count
	// with the older generation; it is caught by the generation check
	// and the scan redone with writers held off.
	gen := m.inlineGen[term]
	m.mu.Unlock()
	inline, err := m.scanInline(term)
	m.mu.Lock()
	if err == nil && (m.roots[term] != nil || m.inlineGen[term] != gen) {
		if root := m.roots[term]; root != nil {
			return m.withAds(root), nil
		}
		gen = m.inlineGen[term]
		inline, err = m.scanInline(term)
	}
	if err != nil {
		return nil, err
	}
	inline.Gen, inline.Types = gen, m.inlineTypes[term]
	inline.Replicas = m.adReplicas(term, inline.Count)
	return inline, nil
}

// withAds returns root as served: with the live advertisements attached
// on a copy, the stored root staying ad-free. Caller holds m.mu.
func (m *Manager) withAds(root *Root) *Root {
	served := *root
	served.Home = m.node.Self().Addr
	served.Blocks = append([]BlockRef(nil), root.Blocks...)
	if len(m.ads) > 0 {
		for i := range served.Blocks {
			served.Blocks[i].Replicas = m.adReplicas(served.Blocks[i].Key, served.Blocks[i].Count)
		}
	}
	return &served
}

// scanInline summarises the local list of a term from a store snapshot.
func (m *Manager) scanInline(term string) (*Root, error) {
	inline := &Root{Term: term, Home: m.node.Self().Addr}
	view, err := m.node.Store().Snapshot()
	if err != nil {
		return nil, err
	}
	defer view.Close()
	err = view.Scan(term, sid.MinPosting, func(p sid.Posting) bool {
		if inline.Count == 0 {
			inline.Lo = p
		}
		inline.Hi = p
		inline.Count++
		return true
	})
	return inline, err
}

// Root fetches the root block of a term from its home peer.
func (m *Manager) Root(ctx context.Context, term string) (*Root, error) {
	cost.FromContext(ctx).AddRootFetches(1)
	home, err := m.node.LocateContext(ctx, term)
	if err != nil {
		return nil, err
	}
	blob, err := m.node.CallProcOn(ctx, home, term, ProcRoot, nil)
	if err != nil {
		return nil, err
	}
	root, err := decodeRoot(blob)
	if err != nil {
		return nil, err
	}
	root.Home = home.Addr
	return root, nil
}

// encoding of roots ---------------------------------------------------

func encodeRoot(r *Root) []byte {
	buf := make([]byte, 0, 32+len(r.Blocks)*48)
	buf = appendStr(buf, r.Term)
	if r.Ordered {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(r.Count))
	buf = binary.AppendUvarint(buf, r.Gen)
	buf = sid.AppendPosting(buf, r.Lo)
	buf = sid.AppendPosting(buf, r.Hi)
	buf = appendStrs(buf, r.Types)
	buf = appendStrs(buf, r.Replicas)
	buf = binary.AppendUvarint(buf, uint64(len(r.Blocks)))
	for _, b := range r.Blocks {
		buf = appendStr(buf, b.Key)
		buf = appendStr(buf, b.Owner)
		buf = sid.AppendPosting(buf, b.Lo)
		buf = sid.AppendPosting(buf, b.Hi)
		buf = binary.AppendUvarint(buf, uint64(b.Count))
		buf = binary.AppendUvarint(buf, b.Gen)
		buf = appendStrs(buf, b.Types)
		buf = appendStrs(buf, b.Replicas)
	}
	return buf
}

func appendStrs(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendStr(buf, s)
	}
	return buf
}

func readStrs(buf []byte, pos int) ([]string, int, error) {
	n, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 || n > uint64(len(buf)) {
		return nil, pos, fmt.Errorf("dpp: bad string-set length at %d", pos)
	}
	pos += sz
	var out []string
	for i := uint64(0); i < n; i++ {
		var s string
		var err error
		if s, pos, err = readStr(buf, pos); err != nil {
			return nil, pos, err
		}
		out = append(out, s)
	}
	return out, pos, nil
}

func decodeRoot(buf []byte) (*Root, error) {
	r := &Root{}
	pos := 0
	var err error
	if r.Term, pos, err = readStr(buf, pos); err != nil {
		return nil, fmt.Errorf("dpp: decode root: %w", err)
	}
	if pos >= len(buf) {
		return nil, fmt.Errorf("dpp: decode root: truncated")
	}
	r.Ordered = buf[pos] == 1
	pos++
	cnt, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 {
		return nil, fmt.Errorf("dpp: decode root: bad inline count")
	}
	pos += sz
	r.Count = int(cnt)
	g, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 {
		return nil, fmt.Errorf("dpp: decode root: bad generation")
	}
	pos += sz
	r.Gen = g
	if r.Lo, pos, err = sid.ReadPosting(buf, pos); err != nil {
		return nil, err
	}
	if r.Hi, pos, err = sid.ReadPosting(buf, pos); err != nil {
		return nil, err
	}
	if r.Types, pos, err = readStrs(buf, pos); err != nil {
		return nil, err
	}
	if r.Replicas, pos, err = readStrs(buf, pos); err != nil {
		return nil, err
	}
	n, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 || n > uint64(len(buf)) {
		return nil, fmt.Errorf("dpp: decode root: bad block count")
	}
	pos += sz
	for i := uint64(0); i < n; i++ {
		var b BlockRef
		if b.Key, pos, err = readStr(buf, pos); err != nil {
			return nil, fmt.Errorf("dpp: decode root block %d: %w", i, err)
		}
		if b.Owner, pos, err = readStr(buf, pos); err != nil {
			return nil, fmt.Errorf("dpp: decode root block %d owner: %w", i, err)
		}
		if b.Lo, pos, err = sid.ReadPosting(buf, pos); err != nil {
			return nil, err
		}
		if b.Hi, pos, err = sid.ReadPosting(buf, pos); err != nil {
			return nil, err
		}
		c, sz := binary.Uvarint(buf[pos:])
		if sz <= 0 {
			return nil, fmt.Errorf("dpp: decode root: bad count")
		}
		pos += sz
		b.Count = int(c)
		bg, sz := binary.Uvarint(buf[pos:])
		if sz <= 0 {
			return nil, fmt.Errorf("dpp: decode root: bad block generation")
		}
		pos += sz
		b.Gen = bg
		if b.Types, pos, err = readStrs(buf, pos); err != nil {
			return nil, err
		}
		if b.Replicas, pos, err = readStrs(buf, pos); err != nil {
			return nil, err
		}
		r.Blocks = append(r.Blocks, b)
	}
	return r, nil
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readStr(buf []byte, pos int) (string, int, error) {
	n, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 || pos+sz+int(n) > len(buf) {
		return "", pos, fmt.Errorf("truncated string at %d", pos)
	}
	pos += sz
	return string(buf[pos : pos+int(n)]), pos + int(n), nil
}

// ProcDelete is the deletion procedure: the home peer routes a
// posting's removal to the block holding it (document modification is
// deletion followed by re-insertion, as in Section 2).
const ProcDelete = "index:dpp:delete"

// Delete removes postings of a term through the term's home peer, so
// deletions reach overflow blocks as well as inline lists.
func (m *Manager) Delete(ctx context.Context, term string, ps postings.List) error {
	if len(ps) == 0 {
		return nil
	}
	sorted := ps.Clone()
	sorted.Sort()
	enc, err := postings.Encode(sorted)
	if err != nil {
		return err
	}
	_, err = m.node.CallProc(ctx, term, ProcDelete, enc)
	return err
}

// handleDelete runs at the term's home peer.
func (m *Manager) handleDelete(ctx context.Context, _ dht.Contact, term string, blob []byte) ([]byte, error) {
	ps, _, err := postings.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("dpp: delete %q: %w", term, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	root := m.roots[term]
	if root == nil {
		for _, p := range ps {
			if err := m.node.Store().Delete(term, p); err != nil {
				return nil, err
			}
		}
		m.inlineGen[term]++
		return nil, m.save()
	}
	// Each posting goes to the first block whose condition covers it;
	// each touched block then gets its postings in one delete.
	parts := make([]postings.List, len(root.Blocks))
	for _, p := range ps {
		for bi := range root.Blocks {
			if ref := &root.Blocks[bi]; p.Compare(ref.Lo) >= 0 && p.Compare(ref.Hi) <= 0 {
				parts[bi] = append(parts[bi], p)
				break
			}
		}
	}
	for bi, part := range parts {
		if len(part) == 0 {
			continue
		}
		ref := &root.Blocks[bi]
		if err := m.node.DeleteAt(ctx, contactAt(ref.Owner), ref.Key, part); err != nil {
			return nil, err
		}
		ref.Gen++
		ref.Count = max(ref.Count-len(part), 0)
	}
	// Drop emptied blocks from the root.
	kept := root.Blocks[:0]
	for _, b := range root.Blocks {
		if b.Count > 0 {
			kept = append(kept, b)
		}
	}
	root.Blocks = kept
	return nil, m.save()
}
