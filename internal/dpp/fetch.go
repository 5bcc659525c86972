package dpp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"kadop/internal/blockcache"
	"kadop/internal/dht"
	"kadop/internal/metrics"
	"kadop/internal/obs/cost"
	"kadop/internal/postings"
	"kadop/internal/replicate"
	"kadop/internal/sid"
	"kadop/internal/trace"
)

// FetchPlan reports what a fetch decided: how many blocks the term has,
// how many the document-interval filter kept, and whether the list was
// still inline at its home peer.
type FetchPlan struct {
	Term       string
	Inline     bool
	Blocks     int
	Fetched    int
	DocClipped bool
	// CacheHits counts blocks (or the inline list) served from the
	// query-peer block cache instead of the network.
	CacheHits int
	// Postings is the root's promise of how many postings the kept
	// blocks (or the inline list) hold — the planner's cardinality
	// input, known before a single posting transfers.
	Postings int
}

// FetchOptions configure the query-side fetch.
type FetchOptions struct {
	// Filter restricts the fetch to postings of documents within
	// [FilterLo, FilterHi] (Section 4.2). Zero values mean no filter.
	Filter             bool
	FilterLo, FilterHi sid.DocKey
	// AllowedTypes restricts the fetch to blocks whose type sets
	// intersect it (Section 4.1's type filtering); nil means no type
	// constraint, and untyped blocks are always transferred.
	AllowedTypes []string

	// noConditionFilter disables the block-level condition filtering
	// while keeping the interval clip, so the clip tests reach blocks
	// the selection would skip.
	noConditionFilter bool
}

// Fetch is FetchContext without a deadline (pinned by bench/: the last
// context-free forward in the package, deleted when bench/ is re-based
// and FetchContext takes the plain name).
func (m *Manager) Fetch(term string, opts FetchOptions) (postings.Stream, *FetchPlan, error) {
	return m.FetchContext(context.Background(), term, opts)
}

// FetchContext returns a stream over the term's full (possibly clipped)
// posting list, transferring DPP blocks from their peers in parallel.
// For ordered DPPs the blocks concatenate in canonical
// order; the randomised ablation merges them.
func (m *Manager) FetchContext(ctx context.Context, term string, opts FetchOptions) (postings.Stream, *FetchPlan, error) {
	root, err := m.Root(ctx, term)
	if err != nil {
		return nil, nil, err
	}
	return m.FetchWithRoot(ctx, root, opts)
}

// FetchWithRoot is FetchContext for a root already retrieved (the query
// planner gets all roots first to compute the document interval); the
// context's deadline bounds the block transfers.
//
// There is one transfer path. The blocks the condition-based selection
// of Section 4 keeps are grouped by the holder picked for each (the
// recorded owner or an advertised replica), and every holder ships its
// blocks over one batched stream, keys in Lo order, every stream opened
// at once: the streams in flight are bounded by the holders the root
// names, at most the overlay's peers. A block reaches its result slot when its last
// chunk arrives, not when the holder's batch drains, so the consumer
// starts on the first block. Holders start in descending order of
// block count, the longest stream first. A list still inline at its home peer is the one-block
// case: the term is the key, the peer that served the root the holder.
// A key its stream did not deliver falls over to the block's other
// holders, then to the routed pipelined get, and last to a refetch of
// the root, in case a restructure retired the key.
//
// Without a block cache the holder clips each block to the document
// interval. With one, kept blocks are looked up by (term, key,
// generation) first and misses transfer the FULL block — the clip moves
// to this side — so the cached copy serves any later interval, and
// concurrent fetches of one block coalesce into a single transfer.
func (m *Manager) FetchWithRoot(ctx context.Context, root *Root, opts FetchOptions) (postings.Stream, *FetchPlan, error) {
	plan := &FetchPlan{Term: root.Term, Blocks: len(root.Blocks), DocClipped: opts.Filter}
	cc := cost.FromContext(ctx)
	var keep []BlockRef
	// The fan-out span covers the fetch decision; the fetch itself
	// streams on, so holder transfers appear as their own child spans and
	// the pipeline's cost lands in the consumer's transfer accounting.
	// Its fetched count includes a kept inline list, as Cost does.
	if sp := trace.FromContext(ctx); sp != nil {
		defer func() {
			c := sp.Child("dpp:fetch", time.Now(), 0)
			c.SetAttr("term", root.Term)
			c.SetInt("blocks", int64(plan.Blocks))
			c.SetInt("fetched", int64(len(keep)))
			c.SetInt("cache-hits", int64(plan.CacheHits))
			if plan.Inline {
				c.SetAttr("inline", "true")
			}
		}()
	}

	// Select blocks: keep those whose condition intersects the filter
	// and whose types can match.
	ordered := root.Ordered
	if len(root.Blocks) == 0 {
		plan.Inline, ordered = true, true
	}
	for _, b := range root.refs() {
		if opts.Filter && ordered && !opts.noConditionFilter {
			if b.Hi.Key().Compare(opts.FilterLo) < 0 || b.Lo.Key().Compare(opts.FilterHi) > 0 {
				continue
			}
		}
		if !opts.noConditionFilter && !typeMatches(b.Types, opts.AllowedTypes) {
			continue
		}
		keep = append(keep, b)
		plan.Postings += b.Count
	}
	if !plan.Inline {
		plan.Fetched = len(keep)
	}
	if len(keep) == 0 {
		return postings.NewSliceStream(nil), plan, nil
	}

	// With a cache, blocks transfer whole and the interval clip applies
	// on this side; without one the holder clips.
	req := dht.BatchGet{Clip: opts.Filter && m.cache == nil, Lo: opts.FilterLo, Hi: opts.FilterHi}
	clip := func(l postings.List) postings.List {
		if opts.Filter && !req.Clip {
			return l.ClipDocs(opts.FilterLo, opts.FilterHi)
		}
		return l
	}

	// Each kept block gets a result slot; the consumer below reads them
	// in block order (ordered DPP) or merges them (random ablation). The
	// transfers run under their own context, cancelled on the first
	// error and when the consumer is done, so no stream outlives its use.
	fctx, cancel := context.WithCancel(ctx)
	results := make([]chan fetched, len(keep))
	for i := range results {
		results[i] = make(chan fetched, 1)
	}

	// Resolve cache hits and coalesced waiters now; what remains are
	// leaders, which owe the network a transfer each, grouped by holder.
	var holders []string
	groups := map[string][]leaderBlock{}
	for i, b := range keep {
		k := blockcache.Key{Term: root.Term, Block: b.Key, Gen: b.Gen}
		if l, ok := m.cache.Get(k); ok {
			plan.CacheHits++
			cc.AddCacheHits(1)
			results[i] <- fetched{list: clip(l)}
			continue
		}
		f, lead := m.cache.BeginFlight(k)
		if !lead {
			go func() {
				l, err := f.Wait(fctx)
				if err != nil && fctx.Err() == nil {
					// The leader's query gave up, not ours: fetch it here.
					l, err = m.fetchBlockFailover(fctx, root, b, "", req)
				}
				results[i] <- fetched{list: clip(l), err: err}
			}()
			continue
		}
		addr := m.pickHolder(b)
		if _, ok := groups[addr]; !ok {
			holders = append(holders, addr)
		}
		groups[addr] = append(groups[addr], leaderBlock{i: i, b: b, key: k, flight: f})
	}

	// finish publishes a leader's result to its flight (unblocking any
	// coalesced waiters, and caching the block) and to its result slot.
	finish := func(lb leaderBlock, l postings.List, err error) {
		m.cache.Complete(lb.key, lb.flight, l, err)
		results[lb.i] <- fetched{list: clip(l), err: err}
	}
	// The largest holder stream is the longest: it opens first.
	sort.SliceStable(holders, func(i, j int) bool { return len(groups[holders[i]]) > len(groups[holders[j]]) })
	for _, addr := range holders {
		go m.fetchHolder(fctx, root, addr, groups[addr], req, finish)
	}

	if ordered {
		out := postings.NewPipe(m.blockSize)
		go func() {
			defer cancel()
			for i := range results {
				r := <-results[i]
				if r.err != nil {
					out.Close(fmt.Errorf("dpp: fetch block %s: %w", keep[i].Key, r.err))
					return
				}
				if !out.Send(r.list) {
					return
				}
			}
			out.Close(nil)
		}()
		return out, plan, nil
	}

	// Random ablation: gather everything, merge.
	defer cancel()
	streams := make([]postings.Stream, len(keep))
	for i := range results {
		r := <-results[i]
		if r.err != nil {
			return nil, nil, r.err
		}
		streams[i] = postings.NewSliceStream(r.list)
	}
	return postings.MergeStreams(streams...), plan, nil
}

type fetched struct {
	list postings.List
	err  error
}

// leaderBlock is a kept block this fetch must transfer: its result
// slot, and the cache flight other fetches of the block wait on.
type leaderBlock struct {
	i      int
	b      BlockRef
	key    blockcache.Key
	flight *blockcache.Flight
}

// fetchHolder pulls a holder's share of a term's blocks over one
// batched stream, finishing each block as its last chunk arrives. A key
// the stream did not deliver — the stream failed, or the peer does not
// hold a block the root says has postings (a stale owner, a demoted
// replica, a key retired since the root was fetched) — falls over.
func (m *Manager) fetchHolder(ctx context.Context, root *Root, addr string, group []leaderBlock, req dht.BatchGet, finish func(leaderBlock, postings.List, error)) {
	start := time.Now()
	req.Keys = make([]string, len(group))
	for i, lb := range group {
		req.Keys[i] = lb.b.Key
	}
	done := make([]bool, len(group))
	var moved int
	err := errNoHolder
	if addr != "" {
		err = m.node.GetBatch(ctx, contactAt(addr), req, func(i int, l postings.List) {
			done[i] = true
			moved += len(l)
			noteFetched(ctx, l)
			finish(group[i], l, nil)
		})
		noteShed(ctx, err)
	}
	dur := time.Since(start)
	m.node.Metrics().Observe(metrics.OpDPPFetch, dur)
	if sp := trace.FromContext(ctx); sp != nil {
		c := sp.Child("dpp:block-batch", start, dur)
		c.SetAttr("peer", addr)
		c.SetInt("blocks", int64(len(group)))
		c.SetInt("postings", int64(moved))
		if err != nil {
			c.SetAttr("error", err.Error())
		}
	}
	for i, lb := range group {
		if done[i] {
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			finish(lb, nil, cerr)
			continue
		}
		l, err := m.fetchBlockFailover(ctx, root, lb.b, addr, req)
		finish(lb, l, err)
	}
}

var errNoHolder = errors.New("dpp: no holder recorded")

func contactAt(addr string) dht.Contact {
	return dht.Contact{ID: dht.PeerIDFromSeed(addr), Addr: addr}
}

// noteFetched charges one transferred block to the query's actuals.
func noteFetched(ctx context.Context, l postings.List) {
	cc := cost.FromContext(ctx)
	cc.AddBlocksFetched(1)
	cc.AddWireBytes(int64(len(l)) * metrics.PostingWireBytes)
}

// noteShed charges a holder's rejection, when it shed the request, to
// the query's actuals.
func noteShed(ctx context.Context, err error) {
	if dht.IsOverload(err) {
		cost.FromContext(ctx).AddShedRetries(1)
	}
}

// pickHolder chooses where a block is fetched from first.
func (m *Manager) pickHolder(b BlockRef) string {
	if len(b.Replicas) == 0 {
		return b.Owner
	}
	return m.orderCandidates(b.Owner, b.Replicas)[0]
}

// orderCandidates builds the probe order over a block's known holders
// — the recorded owner plus any leased replica advertisements — using
// shed-aware power-of-two-choices over the load gauges piggybacked on
// past responses. A peer with no known gauge ranks as idle, so a fresh
// replica gets probed rather than starved.
func (m *Manager) orderCandidates(primary string, replicas []string) []string {
	var addrs []string
	for _, a := range append([]string{primary}, replicas...) {
		if a != "" && !slices.Contains(addrs, a) {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) <= 1 {
		return addrs
	}
	cands := make([]replicate.PeerLoad, len(addrs))
	for i, a := range addrs {
		load, shed, known := m.node.PeerGauge(a)
		cands[i] = replicate.PeerLoad{Addr: a, Load: load, Shed: shed, Known: known}
	}
	m.selMu.Lock()
	order := replicate.Order(cands, m.sel)
	m.selMu.Unlock()
	out := make([]string, len(order))
	for i, idx := range order {
		out[i] = addrs[idx]
	}
	return out
}

// fetchBlockFailover recovers one block of root whose first holder
// (tried) did not deliver it. Each other known holder — the recorded
// owner plus any advertised replicas, in shed-aware power-of-two-choices
// order — gets a single probe, itself a batch of one. Only when all miss
// does the fetch ROTATE to the routed pipelined get, which locates the
// key's current owners and spends the full retry budget there, so a
// stale pointer or a shedding replica costs one failed probe instead of
// the whole budget. A block counted non-empty that no owner has goes to
// refetchBlock.
func (m *Manager) fetchBlockFailover(ctx context.Context, root *Root, b BlockRef, tried string, req dht.BatchGet) (postings.List, error) {
	if list, ok := m.probe(ctx, b, tried, req); ok {
		return list, nil
	}
	list, err := m.routedGet(ctx, b.Key, req)
	if err == nil && len(list) == 0 && b.Count > 0 {
		return m.refetchBlock(ctx, root, b, req)
	}
	return list, err
}

// probe asks b's known holders but tried for the block alone.
func (m *Manager) probe(ctx context.Context, b BlockRef, tried string, req dht.BatchGet) (postings.List, bool) {
	req.Keys = []string{b.Key}
	for _, addr := range m.orderCandidates(b.Owner, b.Replicas) {
		if addr == tried {
			continue
		}
		var list postings.List
		held := false
		err := m.node.GetBatch(ctx, contactAt(addr), req, func(_ int, l postings.List) { list, held = l, true })
		cost.FromContext(ctx).AddReplicaProbes(1)
		noteShed(ctx, err)
		if err == nil && held {
			noteFetched(ctx, list)
			return list, true
		}
	}
	return nil, false
}

// routedGet reads a key from its current owners, clipped as req asks;
// an empty result is never clipped, so it means the owners hold nothing.
func (m *Manager) routedGet(ctx context.Context, key string, req dht.BatchGet) (postings.List, error) {
	s, err := m.node.GetStream(ctx, key)
	if err != nil {
		return nil, err
	}
	list, err := postings.Drain(s)
	if err != nil {
		return nil, err
	}
	noteFetched(ctx, list)
	if req.Clip && len(list) > 0 {
		list = list.ClipDocs(req.Lo, req.Hi)
	}
	return list, nil
}

// maxRootRefetches bounds the root refetches of one block's recovery:
// each one outruns one more restructure of the block's range.
const maxRootRefetches = 3

// refetchBlock recovers block b of root, which no owner holds, from
// the root its home serves now: root.Home's, or the located home's when
// that fails or has never held the term. Its blocks that intersect b's
// condition — b itself if still named, else the replacements a split or
// an overflow put in its place — are read and clipped to it. One that
// no holder has costs another refetch, up to maxRootRefetches.
func (m *Manager) refetchBlock(ctx context.Context, root *Root, b BlockRef, req dht.BatchGet) (postings.List, error) {
	if len(root.Blocks) > 0 && !root.Ordered {
		// Unordered blocks overlap: no condition isolates a retired one.
		return nil, fmt.Errorf("dpp: block %s of unordered %q was retired during the fetch", b.Key, root.Term)
	}
	home := root.Home
	for range maxRootRefetches {
		cur, err := m.rootAt(ctx, contactAt(home), root.Term)
		if err != nil || cur.Gen == 0 && cur.Postings() == 0 {
			if cur, err = m.Root(ctx, root.Term); err == nil && cur.Gen == 0 && cur.Postings() == 0 {
				err = fmt.Errorf("dpp: block %s of %q: no peer knows the term", b.Key, root.Term)
			}
			if err != nil {
				return nil, err
			}
		}
		home = cur.Home
		var out postings.List
		lost := false
		for _, nb := range cur.refs() {
			if _, old := root.ref(nb.Key); old && nb.Key != b.Key || nb.Hi.Compare(b.Lo) < 0 || nb.Lo.Compare(b.Hi) > 0 {
				continue
			}
			list, ok := m.probe(ctx, nb, "", req)
			if !ok {
				if list, err = m.routedGet(ctx, nb.Key, req); err != nil {
					return nil, err
				}
				if lost = len(list) == 0 && nb.Count > 0; lost {
					break
				}
			}
			lo := sort.Search(len(list), func(i int) bool { return list[i].Compare(b.Lo) >= 0 })
			hi := sort.Search(len(list), func(i int) bool { return list[i].Compare(b.Hi) > 0 })
			out = postings.MergeUnique(out, list[lo:hi])
		}
		if !lost {
			return out, nil
		}
	}
	return nil, fmt.Errorf("dpp: block %s of %q (%d postings): not recovered in %d root refetches", b.Key, root.Term, b.Count, maxRootRefetches)
}
