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
	"slices"
	"sort"
	"sync"
	"time"

	"kadop/internal/blockcache"
	"kadop/internal/dht"
	"kadop/internal/obs/cost"
	"kadop/internal/postings"
	"kadop/internal/reclog"
	"kadop/internal/replicate"
	"kadop/internal/sid"
	"kadop/internal/store"
)

// Proc names registered on every peer. The index: prefix routes the
// traffic accounting of publishing; blocks transfer over the DHT's own
// batched get (dht.MsgGetBatch), not a procedure. ProcDelete has the
// home peer route a posting's removal to the block holding it (document
// modification is deletion followed by re-insertion, as in Section 2).
const (
	ProcAppend = "index:dpp:append"
	ProcDelete = "index:dpp:delete"
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
	// Gen counts the mutations of the term at its home, so it never
	// repeats; it is the inline list's generation (see BlockRef.Gen).
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

// refs is the root's blocks or, for a term still inline, its list as
// the one block it is: the term is the key, the home the holder.
func (r *Root) refs() []BlockRef {
	if len(r.Blocks) > 0 || r.Count == 0 {
		return r.Blocks
	}
	return []BlockRef{{Lo: r.Lo, Hi: r.Hi, Key: r.Term, Owner: r.Home,
		Count: r.Count, Gen: r.Gen, Types: r.Types, Replicas: r.Replicas}}
}

// ref is the root's entry for a block key, if it names it.
func (r *Root) ref(key string) (BlockRef, bool) {
	for _, b := range r.refs() {
		if b.Key == key {
			return b, true
		}
	}
	return BlockRef{}, false
}

// maxTrackedTypes caps per-condition type sets; content with more
// distinct types degrades to untyped (never skipped), which keeps the
// filter conservative.
const maxTrackedTypes = 16

// addType inserts a type into a sorted set under the cap, returning nil
// (untyped) when the set overflows. Copy on write: published roots share
// the old array.
func addType(set []string, t string) []string {
	if t == "" || slices.Contains(set, t) {
		return set
	}
	if len(set) >= maxTrackedTypes {
		return nil
	}
	set = append(set[:len(set):len(set)], t)
	sort.Strings(set)
	return set
}

// typeMatches reports whether a condition's type set admits any of the
// allowed types (nil allowed or nil set means no constraint).
func typeMatches(set, allowed []string) bool {
	if len(set) == 0 || allowed == nil {
		return true
	}
	return slices.ContainsFunc(allowed, func(a string) bool { return slices.Contains(set, a) })
}

// Manager runs the DPP logic on one peer: the home-side maintenance of
// roots and blocks, and the query-side parallel fetch. Register must be
// called once per peer so the manager's procedures are reachable.
type Manager struct {
	node      *dht.Node
	blockSize int
	ordered   bool
	cache     *blockcache.Cache

	log *reclog.Log // nil = memory-only

	now func() time.Time

	// wmu serialises the mutations at this home; no reader takes it.
	wmu  sync.Mutex
	next int // pseudo-key counter

	// mu guards roots and ads, and is never held across an RPC.
	mu sync.Mutex
	// roots holds the published root of every term this peer is home
	// for (inline: no blocks). A mutation replaces it, never edits it.
	roots map[string]*Root
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
	// PersistPath, when set, makes the home-side DPP state durable: every
	// mutation appends the term's new root, with the pseudo-key counter,
	// to the root log at this path (persist.go), replayed on
	// construction, so a restarted peer still knows where its terms'
	// overflow blocks live. The blocks themselves are index postings and
	// persist through the node's store.
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
// roots from their log; a corrupt or unreadable log fails construction
// rather than silently forgetting block placements. Close releases the
// log.
func NewManager(node *dht.Node, opts Options) (*Manager, error) {
	bs := opts.BlockSize
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	m := &Manager{node: node, blockSize: bs, ordered: !opts.RandomSplit,
		cache: opts.Cache, roots: map[string]*Root{}, ads: map[string]adEntry{}, now: opts.Now}
	if m.now == nil {
		m.now = time.Now
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	m.sel = rand.New(rand.NewSource(seed + 0x9e1ec7))
	if opts.PersistPath != "" {
		var err error
		if m.log, m.roots, m.next, err = openRootLog(opts.PersistPath, reclog.OSOpen); err != nil {
			return nil, err
		}
	}
	node.Handle(ProcAppend, m.handleAppend)
	node.Handle(ProcDelete, m.handleDelete)
	node.HandleRead(ProcRoot, m.handleRoot)
	node.Handle(replicate.ProcAdvert, m.handleAdvert)
	return m, nil
}

// Close closes the root log; later mutations at this home fail.
func (m *Manager) Close() error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.log.Close()
}

// Cache returns the manager's block cache (nil when caching is off),
// for stats surfacing on the admin endpoint and in experiments.
func (m *Manager) Cache() *blockcache.Cache { return m.cache }

// Append routes postings for a term through the term's home peer, which
// maintains the DPP structure. It is the publishing-side entry point.
// dtype is the document type (Section 4.1), "" for untyped: it is
// recorded in the conditions of the blocks that receive the postings,
// so queries constrained to other types skip them.
func (m *Manager) Append(ctx context.Context, term string, ps postings.List, dtype string) error {
	return m.callHome(ctx, term, ProcAppend, appendStr(nil, dtype), ps)
}

// Delete removes postings of a term through the term's home peer, so
// deletions reach overflow blocks as well as inline lists.
func (m *Manager) Delete(ctx context.Context, term string, ps postings.List) error {
	return m.callHome(ctx, term, ProcDelete, nil, ps)
}

// callHome calls proc at the term's home with blob and a sorted copy of ps.
func (m *Manager) callHome(ctx context.Context, term, proc string, blob []byte, ps postings.List) error {
	if len(ps) == 0 {
		return nil
	}
	sorted := ps.Clone()
	sorted.Sort()
	blob, err := postings.AppendEncoded(blob, sorted)
	if err != nil {
		return err
	}
	_, err = m.node.CallProc(ctx, term, proc, blob)
	return err
}

// handleAppend runs at the term's home peer.
func (m *Manager) handleAppend(ctx context.Context, _ dht.Contact, term string, blob []byte) ([]byte, error) {
	d := &decoder{buf: blob}
	dtype, ps := d.str(), postings.List(nil)
	if d.err == nil {
		ps, _, d.err = postings.Decode(blob[d.pos:])
	}
	if d.err != nil {
		return nil, fmt.Errorf("dpp: append %q: %w", term, d.err)
	}
	if len(ps) == 0 {
		return nil, nil
	}
	return nil, m.appendHome(ctx, term, ps, dtype)
}

// handleDelete runs at the term's home peer. Each posting goes to the
// first block whose condition covers it, and each touched block gets
// its postings in one delete; an inline list loses them in one batch.
func (m *Manager) handleDelete(ctx context.Context, _ dht.Contact, term string, blob []byte) ([]byte, error) {
	ps, _, err := postings.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("dpp: delete %q: %w", term, err)
	}
	return nil, m.mutate(ctx, term, func(r *Root) (func() error, error) {
		if len(r.Blocks) == 0 {
			b := store.NewBatch()
			for _, p := range ps {
				b.Delete(term, p)
			}
			return func() error { return m.node.Store().ApplyBatch(b) }, nil
		}
		parts := make([]postings.List, len(r.Blocks))
		for _, p := range ps {
			if bi := slices.IndexFunc(r.Blocks, func(b BlockRef) bool { return p.Compare(b.Lo) >= 0 && p.Compare(b.Hi) <= 0 }); bi >= 0 {
				parts[bi] = append(parts[bi], p)
			}
		}
		kept := r.Blocks[:0] // emptied blocks drop out of the root
		for bi, ref := range r.Blocks {
			if len(parts[bi]) > 0 {
				var err error
				if ref.Owner, err = m.writeBlock(ctx, ref, parts[bi], m.node.DeleteAt); err != nil {
					return nil, err
				}
				ref.Gen++
				ref.Count = max(ref.Count-len(parts[bi]), 0)
			}
			if ref.Count > 0 {
				kept = append(kept, ref)
			}
		}
		r.Blocks = kept
		return nil, nil
	})
}

// mutate is the one way a term's root changes, at its home. edit makes
// every block write a private copy of the published root needs, and
// returns the inline list's local write, if any. Under m.mu that write
// lands (so LocalRoot can pair a scan of the list with its root), the
// copy is published, its generation bumped, and appended to the root
// log; only then is what it no longer names retired. So no reader holds
// a root whose blocks are unwritten, a failed edit publishes nothing,
// the persisted root never names a deleted key, and no RPC runs under
// m.mu.
func (m *Manager) mutate(ctx context.Context, term string, edit func(r *Root) (func() error, error)) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.mu.Lock()
	old := m.roots[term]
	m.mu.Unlock()
	r := &Root{Term: term}
	if old != nil {
		*r = *old
		r.Blocks = slices.Clone(old.Blocks)
	}
	write, err := edit(r)
	if err != nil {
		return err
	}
	r.Gen++
	m.mu.Lock()
	if write != nil {
		err = write()
	}
	if err == nil {
		m.roots[term] = r
		err = m.log.Append(rootRecord(r, m.next))
	}
	m.mu.Unlock()
	if err != nil || old == nil {
		return err
	}
	return m.retire(ctx, old, r)
}

// retire deletes what old named and r does not: the inline list of a
// term that overflowed, the keys of split or emptied blocks. Readers of
// a stale root that miss them refetch the root (fetchBlockFailover). A
// failed retire leaves garbage behind and is reported; r stands.
func (m *Manager) retire(ctx context.Context, old, r *Root) error {
	if len(old.Blocks) == 0 && len(r.Blocks) > 0 {
		if err := m.node.Store().DeleteTerm(r.Term); err != nil {
			return err
		}
	}
	for _, b := range old.Blocks {
		if !slices.ContainsFunc(r.Blocks, func(x BlockRef) bool { return x.Key == b.Key }) {
			if err := m.node.DeleteKey(ctx, b.Key); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendHome applies one append at the term's home. An inline list
// takes the postings locally, or, once they would take it past the
// bound, overflows into blocks.
func (m *Manager) appendHome(ctx context.Context, term string, ps postings.List, dtype string) error {
	return m.mutate(ctx, term, func(r *Root) (func() error, error) {
		r.Types = addType(r.Types, dtype)
		if len(r.Blocks) > 0 {
			return nil, m.appendBlocks(ctx, r, ps, dtype)
		}
		st := m.node.Store()
		write := func() error { return st.Append(term, ps) }
		n, err := st.Count(term)
		if err != nil || n+len(ps) <= m.blockSize {
			return write, err
		}
		list, err := st.Get(term)
		if list = postings.MergeUnique(list, ps); err != nil || len(list) <= m.blockSize {
			return write, err
		}
		r.Ordered = m.ordered
		r.Blocks, err = m.place(ctx, term, list, r.Types)
		return nil, err
	})
}

// appendBlocks routes sorted postings to the blocks whose conditions
// cover them, widening boundary conditions as needed. A block the chunk
// would take past the bound is replaced by bound-respecting pieces at
// fresh pseudo-keys (the C -> C1, C2 step of Section 4.1, generalised
// for bulk appends), and left as it was for readers of the current root
// until mutate retires it. Pieces are placed before any block append.
func (m *Manager) appendBlocks(ctx context.Context, r *Root, ps postings.List, dtype string) error {
	chunks := make([]postings.List, len(r.Blocks))
	if !r.Ordered {
		// Random mode: spread arrivals round-robin across blocks.
		for i, p := range ps {
			chunks[i%len(chunks)] = append(chunks[i%len(chunks)], p)
		}
	} else {
		// Ordered mode: each block takes the postings up to its Hi, the
		// last block everything else.
		for bi := range chunks {
			j := len(ps)
			if bi < len(chunks)-1 {
				j = sort.Search(len(ps), func(j int) bool { return ps[j].Compare(r.Blocks[bi].Hi) > 0 })
			}
			chunks[bi], ps = ps[:j], ps[j:]
		}
	}
	pieces := make([][]BlockRef, len(chunks))
	for bi, chunk := range chunks {
		if old := r.Blocks[bi]; len(chunk) > 0 && old.Count+len(chunk) > m.blockSize {
			list, err := m.fetchBlockFailover(ctx, &Root{Term: r.Term, Home: m.node.Self().Addr}, old, "", dht.BatchGet{})
			if err != nil {
				return err
			}
			if pieces[bi], err = m.place(ctx, r.Term, postings.MergeUnique(list, chunk), addType(old.Types, dtype)); err != nil {
				return err
			}
		}
	}
	var blocks []BlockRef
	for bi, chunk := range chunks {
		ref := r.Blocks[bi]
		if pieces[bi] != nil {
			blocks = append(blocks, pieces[bi]...)
			continue
		}
		if len(chunk) > 0 {
			var err error
			if ref.Owner, err = m.writeBlock(ctx, ref, chunk, m.node.AppendAt); err != nil {
				return err
			}
			ref.Gen++
			ref.Count += len(chunk)
			ref.Types = addType(ref.Types, dtype)
			ref.Lo = slices.MinFunc([]sid.Posting{ref.Lo, chunk[0]}, sid.Posting.Compare)
			ref.Hi = slices.MaxFunc([]sid.Posting{ref.Hi, chunk[len(chunk)-1]}, sid.Posting.Compare)
		}
		blocks = append(blocks, ref)
	}
	r.Blocks = blocks
	return nil
}

// writeBlock applies one block write (AppendAt or DeleteAt) at every
// owner of the block's key, which the routed get and replica repair
// read, and at its recorded holder, which readers probe first, if not
// among them. It returns the holder: the closest owner for a new block
// or one whose holder failed once every owner took the write.
func (m *Manager) writeBlock(ctx context.Context, ref BlockRef, ps postings.List,
	write func(context.Context, dht.Contact, string, postings.List) error) (string, error) {
	owners, err := m.node.Owners(ctx, ref.Key)
	if err != nil {
		return "", err
	}
	held := false
	for _, o := range owners {
		if err := write(ctx, o, ref.Key, ps); err != nil {
			return "", err
		}
		held = held || o.Addr == ref.Owner
	}
	if ref.Owner == "" || !held && write(ctx, contactAt(ref.Owner), ref.Key, ps) != nil {
		return owners[0].Addr, nil
	}
	return ref.Owner, nil
}

// place divides a sorted list into ceil(n/blockSize) blocks of nearly
// equal size (at least two), each within the bound — ordered mode cuts
// by ranges, the randomised ablation deals round-robin — and ships each
// to the owners of a fresh pseudo-key, the closest its holder, returning
// the references the root records for them. The pseudo-keys are
// reserved in the root log before the first piece is written, so a
// placement that fails or crashes part-way never hands an orphaned
// piece's key to a later one, whose block would then hold the orphan's
// unacknowledged postings.
func (m *Manager) place(ctx context.Context, term string, list postings.List, types []string) ([]BlockRef, error) {
	k := max((len(list)+m.blockSize-1)/m.blockSize, 2)
	parts := make([]postings.List, k)
	for i, p := range list {
		j := i % k
		if m.ordered {
			j = i / ((len(list) + k - 1) / k)
		}
		parts[j] = append(parts[j], p)
	}
	parts = slices.DeleteFunc(parts, func(p postings.List) bool { return len(p) == 0 })
	first := m.next
	m.next += len(parts)
	if err := m.log.Append(rootRecord(nil, m.next)); err != nil {
		return nil, err
	}
	var refs []BlockRef
	for i, part := range parts {
		key := fmt.Sprintf("overflow:%d:%s", first+i+1, term)
		ref := BlockRef{Lo: part[0], Hi: part[len(part)-1], Key: key, Count: len(part), Types: types}
		var err error
		if ref.Owner, err = m.writeBlock(ctx, ref, part, m.node.AppendAt); err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}
	return refs, nil
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
	if ok && ad.expire <= m.now().UnixNano() {
		delete(m.ads, key)
		ok = false
	}
	if !ok || ad.count != uint64(count) {
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
	pub := m.roots[term]
	if pub != nil && len(pub.Blocks) > 0 {
		return m.withAds(pub), nil
	}
	// Summarise the inline list without the lock, so root fetches do not
	// serialise behind each other or appends. An inline write lands under
	// m.mu with the root it publishes (mutate): an unchanged root means
	// the scan saw exactly its writes, else it is redone under the lock.
	m.mu.Unlock()
	inline, err := m.scanInline(term)
	m.mu.Lock()
	if err == nil && m.roots[term] != pub {
		if pub = m.roots[term]; len(pub.Blocks) > 0 {
			return m.withAds(pub), nil
		}
		inline, err = m.scanInline(term)
	}
	if err != nil {
		return nil, err
	}
	if pub != nil {
		inline.Gen, inline.Types = pub.Gen, pub.Types
	}
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

// Root fetches the root block of a term from its home peer: a read the
// home lookup carries, so the root comes back with the lookup's last
// round (dht.Node.CallRead).
func (m *Manager) Root(ctx context.Context, term string) (*Root, error) {
	cost.FromContext(ctx).AddRootFetches(1)
	home, blob, err := m.node.CallRead(ctx, term, ProcRoot)
	if err != nil {
		return nil, err
	}
	return rootFrom(home, blob)
}

// rootAt fetches the root block of a term from the peer home, which a
// refetch names.
func (m *Manager) rootAt(ctx context.Context, home dht.Contact, term string) (*Root, error) {
	cost.FromContext(ctx).AddRootFetches(1)
	blob, err := m.node.CallProcOn(ctx, home, term, ProcRoot, nil)
	if err != nil {
		return nil, err
	}
	return rootFrom(home, blob)
}

// rootFrom decodes the root block home served.
func rootFrom(home dht.Contact, blob []byte) (*Root, error) {
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
	ordered := byte(0)
	if r.Ordered {
		ordered = 1
	}
	buf = append(appendStr(buf, r.Term), ordered)
	buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(r.Count)), r.Gen)
	buf = sid.AppendPosting(sid.AppendPosting(buf, r.Lo), r.Hi)
	buf = appendStrs(appendStrs(buf, r.Types), r.Replicas)
	buf = binary.AppendUvarint(buf, uint64(len(r.Blocks)))
	for _, b := range r.Blocks {
		buf = appendStr(appendStr(buf, b.Key), b.Owner)
		buf = sid.AppendPosting(sid.AppendPosting(buf, b.Lo), b.Hi)
		buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(b.Count)), b.Gen)
		buf = appendStrs(appendStrs(buf, b.Types), b.Replicas)
	}
	return buf
}

func decodeRoot(buf []byte) (*Root, error) {
	d := &decoder{buf: buf}
	r := &Root{Term: d.str(), Ordered: d.uvarint() == 1} // one byte, 0 or 1
	r.Count, r.Gen = int(d.uvarint()), d.uvarint()
	r.Lo, r.Hi = d.posting(), d.posting()
	r.Types, r.Replicas = d.strs(), d.strs()
	for n := d.count(); d.err == nil && n > 0; n-- {
		b := BlockRef{Key: d.str(), Owner: d.str(), Lo: d.posting(), Hi: d.posting()}
		b.Count, b.Gen = int(d.uvarint()), d.uvarint()
		b.Types, b.Replicas = d.strs(), d.strs()
		r.Blocks = append(r.Blocks, b)
	}
	if d.err != nil {
		return nil, fmt.Errorf("dpp: decode root: %w", d.err)
	}
	return r, nil
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendStrs(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendStr(buf, s)
	}
	return buf
}

// decoder reads encoded fields in order. The first error sticks, and
// every read after it returns a zero value.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, sz := binary.Uvarint(d.buf[d.pos:])
	if sz <= 0 {
		d.err = fmt.Errorf("bad uvarint at %d", d.pos)
		return 0
	}
	d.pos += sz
	return v
}

// count reads a length: of a string, or of a list of items each at
// least a byte long, so never more than the bytes left.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.buf)-d.pos) {
		d.err = fmt.Errorf("length %d overruns the buffer at %d", n, d.pos)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count()
	d.pos += n
	return string(d.buf[d.pos-n : d.pos])
}

func (d *decoder) strs() []string {
	var out []string
	for n := d.count(); d.err == nil && n > 0; n-- {
		out = append(out, d.str())
	}
	return out
}

func (d *decoder) posting() (p sid.Posting) {
	if d.err == nil {
		p, d.pos, d.err = sid.ReadPosting(d.buf, d.pos)
	}
	return p
}
