package dpp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
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
	Parallel   int
	DocClipped bool
	// CacheHits counts blocks (or the inline list) served from the
	// query-peer block cache instead of the network.
	CacheHits int
	// Postings is the root's promise of how many postings the kept
	// blocks (or the inline list) hold — the planner's cardinality
	// input, known before a single posting transfers.
	Postings int
	// Probes and Sheds count replica probes and overload sheds on the
	// synchronous inline path only; block-path probes run in fetch
	// goroutines after the plan is returned and are attributed to
	// their dpp:block spans instead.
	Probes int
	Sheds  int
}

// FetchOptions configure the query-side fetch.
type FetchOptions struct {
	// Parallel is the maximum number of blocks in flight (the paper's
	// degree of parallelism K; default 4).
	Parallel int
	// Filter restricts the fetch to postings of documents within
	// [FilterLo, FilterHi] (Section 4.2). Zero values mean no filter.
	Filter             bool
	FilterLo, FilterHi sid.DocKey
	// NoConditionFilter disables the block-level condition filtering
	// while keeping the interval clip, for the ablation benchmarks.
	NoConditionFilter bool
	// AllowedTypes restricts the fetch to blocks whose type sets
	// intersect it (Section 4.1's type filtering); nil means no type
	// constraint, and untyped blocks are always transferred.
	AllowedTypes []string
}

// Fetch returns a stream over the term's full (possibly clipped)
// posting list, transferring DPP blocks from their peers with bounded
// parallelism. For ordered DPPs the blocks concatenate in canonical
// order; the randomised ablation merges them.
func (m *Manager) Fetch(term string, opts FetchOptions) (postings.Stream, *FetchPlan, error) {
	return m.FetchContext(context.Background(), term, opts)
}

// FetchContext is Fetch under a caller-controlled deadline.
func (m *Manager) FetchContext(ctx context.Context, term string, opts FetchOptions) (postings.Stream, *FetchPlan, error) {
	root, err := m.RootContext(ctx, term)
	if err != nil {
		return nil, nil, err
	}
	return m.FetchWithRootContext(ctx, root, opts)
}

// FetchWithRootContext is Fetch for a root already retrieved (the query
// planner gets all roots first to compute the document interval), under
// a caller-controlled deadline that bounds the block transfers.
//
// With a block cache configured, the condition-based block selection of
// Section 4 is unchanged, but kept blocks are looked up in the cache by
// (term, key, generation) first; misses transfer the FULL block — the
// interval clip moves to this side — so the cached copy serves any
// later interval, and concurrent fetches of one block coalesce into a
// single transfer. Miss blocks co-located on one peer are fetched in a
// single batched round trip.
func (m *Manager) FetchWithRootContext(ctx context.Context, root *Root, opts FetchOptions) (postings.Stream, *FetchPlan, error) {
	if opts.Parallel <= 0 {
		opts.Parallel = 4
	}
	plan := &FetchPlan{Term: root.Term, Blocks: len(root.Blocks), Parallel: opts.Parallel, DocClipped: opts.Filter}
	cc := cost.FromContext(ctx)
	// The fan-out span covers the fetch decision; the fetch itself
	// streams on, so block transfers appear as their own child spans and
	// the pipeline's cost lands in the consumer's transfer accounting.
	if sp := trace.FromContext(ctx); sp != nil {
		defer func() {
			c := sp.Child("dpp:fetch", time.Now(), 0)
			c.SetAttr("term", root.Term)
			c.SetInt("blocks", int64(plan.Blocks))
			c.SetInt("fetched", int64(plan.Fetched))
			c.SetInt("parallel", int64(plan.Parallel))
			c.SetInt("cache-hits", int64(plan.CacheHits))
			if plan.Probes > 0 {
				c.SetInt("probes", int64(plan.Probes))
			}
			if plan.Sheds > 0 {
				c.SetInt("sheds", int64(plan.Sheds))
			}
			if plan.Inline {
				c.SetAttr("inline", "true")
			}
		}()
	}
	if len(root.Blocks) == 0 {
		return m.fetchInline(ctx, root, opts, plan)
	}

	// Select blocks: keep those whose condition intersects the filter
	// and whose types can match.
	var keep []BlockRef
	for _, b := range root.Blocks {
		if opts.Filter && root.Ordered && !opts.NoConditionFilter {
			if b.Hi.Key().Compare(opts.FilterLo) < 0 || b.Lo.Key().Compare(opts.FilterHi) > 0 {
				continue
			}
		}
		if !opts.NoConditionFilter && !typeMatches(b.Types, opts.AllowedTypes) {
			continue
		}
		keep = append(keep, b)
	}
	plan.Fetched = len(keep)
	for _, b := range keep {
		plan.Postings += b.Count
	}
	if len(keep) == 0 {
		return postings.NewSliceStream(nil), plan, nil
	}

	// With a cache, blocks transfer whole and the interval clip applies
	// on this side; without one the holder clips (the old behaviour),
	// which also rules batching out under a filter — an empty clipped
	// block and a stale owner would be indistinguishable.
	cacheOn := m.cache != nil
	clientClip := opts.Filter && cacheOn
	var blob []byte
	if opts.Filter && !cacheOn {
		blob = encodeInterval(opts.FilterLo, opts.FilterHi)
	}
	clip := func(l postings.List) postings.List {
		if clientClip {
			return l.ClipDocs(opts.FilterLo, opts.FilterHi)
		}
		return l
	}

	// Each kept block gets a result slot; the consumer below reads them
	// in block order (ordered DPP) or merges them (random ablation).
	results := make([]chan fetched, len(keep))
	for i := range results {
		results[i] = make(chan fetched, 1)
	}

	// Resolve cache hits and coalesced waiters now; what remains are
	// leaders, which owe the network a transfer each.
	type leaderBlock struct {
		i      int
		b      BlockRef
		key    blockcache.Key
		flight *blockcache.Flight
	}
	var leaders []leaderBlock
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
			go func(i int, f *blockcache.Flight) {
				l, err := f.Wait(ctx)
				results[i] <- fetched{list: clip(l), err: err}
			}(i, f)
			continue
		}
		leaders = append(leaders, leaderBlock{i: i, b: b, key: k, flight: f})
	}

	// finish publishes a leader's result to its flight (unblocking any
	// coalesced waiters, and caching the block) and to its result slot.
	finish := func(lb leaderBlock, l postings.List, err error) {
		m.cache.Complete(lb.key, lb.flight, l, err)
		results[lb.i] <- fetched{list: clip(l), err: err}
	}
	fetchOne := func(lb leaderBlock) {
		l, err := m.fetchBlock(ctx, lb.b, blob)
		finish(lb, l, err)
	}

	// Group leader blocks by recorded owner: two or more on one peer
	// fetch in a single round trip. Batching transfers full blocks, so
	// it only applies when a cache clips client-side or no filter is
	// set; otherwise every block degrades to its own clipped get.
	singles, batches := planBatches(leaders, cacheOn || !opts.Filter, func(lb leaderBlock) string {
		return lb.b.Owner
	})

	sem := make(chan struct{}, opts.Parallel)
	go func() {
		for _, lb := range singles {
			sem <- struct{}{}
			go func(lb leaderBlock) {
				defer func() { <-sem }()
				fetchOne(lb)
			}(lb)
		}
		for owner, group := range batches {
			sem <- struct{}{}
			go func(owner string, group []leaderBlock) {
				defer func() { <-sem }()
				keys := make([]string, len(group))
				for gi, lb := range group {
					keys[gi] = lb.b.Key
				}
				got, err := m.fetchBatch(ctx, owner, keys)
				for _, lb := range group {
					if err != nil || (len(got[lb.b.Key]) == 0 && lb.b.Count > 0) {
						// The whole batch failed, or this block came back
						// empty from a peer that should hold postings (a
						// stale owner): fall back to the rotating
						// per-block fetch.
						fetchOne(lb)
						continue
					}
					finish(lb, got[lb.b.Key], nil)
				}
			}(owner, group)
		}
	}()

	if root.Ordered {
		out := postings.NewPipe(m.blockSize)
		go func() {
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
	var wg sync.WaitGroup
	lists := make([]postings.List, len(keep))
	var firstErr error
	var mu sync.Mutex
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := <-results[i]
			mu.Lock()
			defer mu.Unlock()
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
			lists[i] = r.list
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	streams := make([]postings.Stream, len(lists))
	for i, l := range lists {
		streams[i] = postings.NewSliceStream(l)
	}
	return postings.MergeStreams(streams...), plan, nil
}

// fetchInline serves a term that never overflowed: the list streams
// from the term's home peer and is clipped on this side. With a cache,
// a hit skips the stream entirely and a miss tees the transfer into
// the cache as it completes.
func (m *Manager) fetchInline(ctx context.Context, root *Root, opts FetchOptions, plan *FetchPlan) (postings.Stream, *FetchPlan, error) {
	plan.Inline = true
	cc := cost.FromContext(ctx)
	if !typeMatches(root.Types, opts.AllowedTypes) {
		return postings.NewSliceStream(nil), plan, nil
	}
	plan.Postings = root.Count
	key := blockcache.Key{Term: root.Term, Gen: root.Gen}
	if m.cache != nil && root.Count > 0 {
		if l, ok := m.cache.Get(key); ok {
			plan.CacheHits++
			cc.AddCacheHits(1)
			if opts.Filter {
				l = l.ClipDocs(opts.FilterLo, opts.FilterHi)
			}
			return postings.NewSliceStream(l), plan, nil
		}
	}
	if len(root.Replicas) > 0 && root.Count > 0 {
		// A hot inline list advertises leased replicas on its root.
		// Probe them in shed-aware power-of-two-choices order, draining
		// eagerly (an inline list is at most one block), and trust a
		// copy only if it is as complete as the root promised — a
		// demoted or mid-push replica answers short and is skipped.
		for _, addr := range m.orderCandidates("", root.Replicas) {
			plan.Probes++
			cc.AddReplicaProbes(1)
			l, err := m.probeBlock(ctx, addr, root.Term, nil)
			if dht.IsOverload(err) {
				plan.Sheds++
				cc.AddShedRetries(1)
			}
			if err != nil || len(l) < root.Count {
				continue
			}
			cc.AddBlocksFetched(1)
			cc.AddWireBytes(int64(len(l)) * metrics.PostingWireBytes)
			if m.cache != nil {
				m.cache.Add(key, l)
			}
			if opts.Filter {
				l = l.ClipDocs(opts.FilterLo, opts.FilterHi)
			}
			return postings.NewSliceStream(l), plan, nil
		}
		// Every replica failed or was stale: the home peer is still the
		// source of truth, so fall through to the routed stream.
	}
	s, err := m.node.GetStreamContext(ctx, root.Term)
	if err != nil {
		return nil, nil, err
	}
	if root.Count > 0 {
		cc.AddBlocksFetched(1)
	}
	s = &costStream{s: s, c: cc}
	if m.cache != nil && root.Count > 0 {
		// The transfer is full-list regardless (the clip below is local),
		// so a completely drained stream is exactly the cacheable block.
		// No singleflight here: a consumer may abandon the stream, and a
		// flight without a guaranteed completion would hang its waiters.
		s = &teeStream{s: s, cache: m.cache, key: key}
	}
	if opts.Filter {
		s = clipStream(s, opts.FilterLo, opts.FilterHi)
	}
	return s, plan, nil
}

type fetched struct {
	list postings.List
	err  error
}

// planBatches splits leaders into per-block singles and per-owner
// batches of two or more blocks. Batching requires full-block transfers
// (allowed=false forces everything single); blocks with no recorded
// owner must locate, so they stay single too.
func planBatches[T any](leaders []T, allowed bool, ownerOf func(T) string) (singles []T, batches map[string][]T) {
	if !allowed {
		return leaders, nil
	}
	byOwner := map[string][]T{}
	for _, lb := range leaders {
		owner := ownerOf(lb)
		if owner == "" {
			singles = append(singles, lb)
			continue
		}
		byOwner[owner] = append(byOwner[owner], lb)
	}
	for owner, group := range byOwner {
		if len(group) < 2 {
			singles = append(singles, group...)
			continue
		}
		if batches == nil {
			batches = map[string][]T{}
		}
		batches[owner] = group
	}
	return singles, batches
}

// fetchBatch pulls a group of co-located blocks from their recorded
// owner in one round trip (a key the peer holds nothing for maps to an
// empty list).
func (m *Manager) fetchBatch(ctx context.Context, owner string, keys []string) (map[string]postings.List, error) {
	start := time.Now()
	contact := dht.Contact{ID: dht.PeerIDFromSeed(owner), Addr: owner}
	got, err := m.node.GetBatchContext(ctx, contact, keys, false, sid.DocKey{}, sid.DocKey{})
	dur := time.Since(start)
	m.node.Metrics().Observe(metrics.OpDPPFetch, dur)
	if err == nil {
		cc := cost.FromContext(ctx)
		for _, l := range got {
			if len(l) > 0 {
				cc.AddBlocksFetched(1)
				cc.AddWireBytes(int64(len(l)) * metrics.PostingWireBytes)
			}
		}
	}
	if sp := trace.FromContext(ctx); sp != nil {
		c := sp.Child("dpp:block-batch", start, dur)
		c.SetAttr("peer", owner)
		c.SetInt("blocks", int64(len(keys)))
		if err != nil {
			c.SetAttr("error", err.Error())
		}
	}
	return got, err
}

// orderCandidates builds the probe order over a block's known holders
// — the recorded owner plus any leased replica advertisements — using
// shed-aware power-of-two-choices over the load gauges piggybacked on
// past responses. A peer with no known gauge ranks as idle, so a fresh
// replica gets probed rather than starved.
func (m *Manager) orderCandidates(primary string, replicas []string) []string {
	seen := map[string]bool{}
	var addrs []string
	for _, a := range append([]string{primary}, replicas...) {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		addrs = append(addrs, a)
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

// probeBlock opens a single-attempt stream for key at addr and drains
// it. Streams open optimistically, so an admission-gate rejection (or
// any other server-side error) surfaces here as a drain error — which
// is exactly what lets callers fail over to the next holder.
func (m *Manager) probeBlock(ctx context.Context, addr, key string, intervalBlob []byte) (postings.List, error) {
	c := dht.Contact{ID: dht.PeerIDFromSeed(addr), Addr: addr}
	s, err := m.node.OpenProcStreamOnceContext(ctx, c, key, ProcBlock, intervalBlob)
	if err != nil {
		return nil, err
	}
	return postings.Drain(s)
}

// fetchBlock drains a block's (possibly clipped) stream from one of its
// holders. Each known holder — the recorded owner plus any advertised
// replicas, in shed-aware power-of-two-choices order — gets a single
// probe; a failed or stale probe fails over to the next. Only when all
// probes miss does the fetch ROTATE to a freshly located holder and
// finally spend the full retry budget there, so a stale pointer or a
// shedding replica costs one failed probe instead of the whole budget.
func (m *Manager) fetchBlock(ctx context.Context, b BlockRef, intervalBlob []byte) (postings.List, error) {
	start := time.Now()
	var probes, sheds int64
	list, err := m.fetchBlockFailover(ctx, b, intervalBlob, &probes, &sheds)
	dur := time.Since(start)
	m.node.Metrics().Observe(metrics.OpDPPFetch, dur)
	cc := cost.FromContext(ctx)
	cc.AddReplicaProbes(probes)
	cc.AddShedRetries(sheds)
	if err == nil {
		cc.AddBlocksFetched(1)
		cc.AddWireBytes(int64(len(list)) * metrics.PostingWireBytes)
	}
	if sp := trace.FromContext(ctx); sp != nil {
		c := sp.Child("dpp:block", start, dur)
		c.SetAttr("block", b.Key)
		c.SetInt("postings", int64(len(list)))
		if probes > 0 {
			c.SetInt("probes", probes)
		}
		if sheds > 0 {
			c.SetInt("sheds", sheds)
		}
		if err != nil {
			c.SetAttr("error", err.Error())
		}
	}
	return list, err
}

func (m *Manager) fetchBlockFailover(ctx context.Context, b BlockRef, intervalBlob []byte, probes, sheds *int64) (postings.List, error) {
	tried := map[string]bool{}
	for _, addr := range m.orderCandidates(b.Owner, b.Replicas) {
		tried[addr] = true
		*probes++
		list, err := m.probeBlock(ctx, addr, b.Key, intervalBlob)
		if err != nil {
			if dht.IsOverload(err) {
				*sheds++
			}
			continue // dead, shed, or unreachable: next holder
		}
		if len(list) == 0 && b.Count > 0 && addr != b.Owner {
			// An advertised replica answering empty for a block that has
			// postings is stale (demoted, or its push never finished):
			// treat it as a miss, not as truth.
			continue
		}
		return list, nil
	}
	// Rotate: route the pseudo-key to the current holder and, if the
	// probes above did not already cover it, probe that once too before
	// spending retries anywhere.
	owner, err := m.node.LocateContext(ctx, b.Key)
	if err != nil {
		return nil, err
	}
	if !tried[owner.Addr] {
		*probes++
		if list, err := m.probeBlock(ctx, owner.Addr, b.Key, intervalBlob); err == nil {
			return list, nil
		} else if dht.IsOverload(err) {
			*sheds++
		}
	}
	// Every candidate failed its probe: the full retry/backoff budget
	// now goes to the routed holder (transient faults heal here).
	s, err := m.node.OpenProcStreamContext(ctx, owner, b.Key, ProcBlock, intervalBlob)
	if err != nil {
		return nil, err
	}
	return postings.Drain(s)
}

// costStream counts the wire bytes of a routed posting stream as the
// consumer pulls it — inline lists transfer lazily, so the bytes are
// only known posting by posting.
type costStream struct {
	s postings.Stream
	c *cost.Counters
}

func (cs *costStream) Next() (sid.Posting, error) {
	p, err := cs.s.Next()
	if err == nil {
		cs.c.AddWireBytes(metrics.PostingWireBytes)
	}
	return p, err
}

// teeStream accumulates a fully drained stream into the block cache.
type teeStream struct {
	s     postings.Stream
	cache *blockcache.Cache
	key   blockcache.Key
	acc   postings.List
	done  bool
}

func (t *teeStream) Next() (sid.Posting, error) {
	p, err := t.s.Next()
	if err == nil {
		t.acc = append(t.acc, p)
		return p, nil
	}
	if errors.Is(err, io.EOF) && !t.done {
		t.done = true
		t.cache.Add(t.key, t.acc)
	}
	return p, err
}

// clipStream filters a stream to the document interval (client side,
// for inline lists, where the transfer already happened and only the
// join input needs narrowing).
func clipStream(s postings.Stream, lo, hi sid.DocKey) postings.Stream {
	return &clippedStream{s: s, lo: lo, hi: hi}
}

type clippedStream struct {
	s      postings.Stream
	lo, hi sid.DocKey
}

func (c *clippedStream) Next() (sid.Posting, error) {
	for {
		p, err := c.s.Next()
		if err != nil {
			return p, err
		}
		k := p.Key()
		if k.Compare(c.lo) < 0 {
			continue
		}
		if k.Compare(c.hi) > 0 {
			continue
		}
		return p, nil
	}
}
