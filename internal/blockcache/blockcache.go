// Package blockcache implements the query-peer posting-block cache: a
// sharded LRU of DPP posting blocks keyed by (term, block, generation).
//
// KadoP's query cost is dominated by transferring posting-list blocks
// over the DHT (Sections 3-4 of the paper). Repeated and overlapping
// queries fetch the same blocks again and again; caching them at the
// consuming peer removes those transfers entirely. Correctness comes
// from the generation in the key: the term's home peer bumps a block's
// generation on every append or delete that touches it, and the query
// peer learns the current generations from the root block it fetches
// for every query anyway — a stale cached block simply stops being
// addressed and ages out of the LRU.
//
// The cache also coalesces concurrent misses (singleflight): when two
// twig-join branches — or two concurrent queries — want the same block
// at the same time, one fetch goes to the network and both consumers
// share the result.
package blockcache

import (
	"container/list"
	"context"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"kadop/internal/metrics"
	"kadop/internal/obs/flight"
	"kadop/internal/postings"
)

// Key identifies one cached posting block. Block is the DPP pseudo-key
// of the block ("overflow:<n>:<term>"); the empty string addresses the
// term's inline list (a term that never overflowed its home peer). Gen
// is the block's generation as reported by the term's root block.
type Key struct {
	Term  string
	Block string
	Gen   uint64
}

// Options configure a Cache.
type Options struct {
	// MaxBytes bounds the total encoded size of cached blocks
	// (default 64 MiB). Entries larger than one shard's share of the
	// budget are not cached at all.
	MaxBytes int64

	// shards is the number of independent LRU shards (default 16,
	// rounded up to a power of two). More shards mean less lock
	// contention between concurrent twig-join branches; the eviction
	// tests use one so the whole budget is a single LRU.
	shards int
}

// DefaultMaxBytes is the default cache capacity.
const DefaultMaxBytes = 64 << 20

// Cache is a sharded LRU of posting blocks with per-key singleflight.
// All methods are safe for concurrent use. A nil *Cache is valid and
// behaves as an always-miss cache without coalescing.
type Cache struct {
	shards []*shard
	mask   uint64
	seed   maphash.Seed

	flightMu sync.Mutex
	flights  map[Key]*Flight

	collector atomic.Pointer[metrics.Collector]
	recorder  atomic.Pointer[flight.Recorder]

	hits       atomic.Int64
	misses     atomic.Int64
	coalesced  atomic.Int64
	inserts    atomic.Int64
	evictions  atomic.Int64
	rejected   atomic.Int64
	bytesSaved atomic.Int64
}

type shard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[Key]*list.Element
	lru      *list.List // front = most recently used
}

type entry struct {
	key   Key
	list  postings.List
	bytes int64
}

// New builds a cache.
func New(o Options) *Cache {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	n := o.shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two so shard selection is a mask.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	n = pow
	c := &Cache{
		shards:  make([]*shard, n),
		mask:    uint64(n - 1),
		seed:    maphash.MakeSeed(),
		flights: map[Key]*Flight{},
	}
	per := o.MaxBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			maxBytes: per,
			entries:  map[Key]*list.Element{},
			lru:      list.New(),
		}
	}
	return c
}

// SetCollector mirrors the cache's counters into a metrics collector as
// events (cache-hits, cache-misses, ...), so they surface alongside the
// traffic accounting on /debug/metrics. Nil disables mirroring.
func (c *Cache) SetCollector(col *metrics.Collector) {
	if c == nil {
		return
	}
	c.collector.Store(col)
}

func (c *Cache) col() *metrics.Collector {
	if c == nil {
		return nil
	}
	return c.collector.Load()
}

// SetFlight mirrors cache misses into a flight recorder, so a dump
// shows which blocks the cache had to go to the network for just
// before an incident. Nil disables mirroring.
func (c *Cache) SetFlight(r *flight.Recorder) {
	if c == nil {
		return
	}
	c.recorder.Store(r)
}

func (c *Cache) shardOf(k Key) *shard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(k.Term)
	h.WriteByte(0)
	h.WriteString(k.Block)
	return c.shards[h.Sum64()&c.mask]
}

// Get returns the cached block for k, if present, and records the hit
// or miss. The returned list is shared and must not be mutated.
func (c *Cache) Get(k Key) (postings.List, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardOf(k)
	s.mu.Lock()
	el, ok := s.entries[k]
	var (
		l postings.List
		n int64
	)
	if ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*entry)
		l, n = e.list, e.bytes
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		c.col().CountEvent(metrics.EventCacheMiss)
		if fr := c.recorder.Load(); fr != nil {
			fr.Record(flight.Event{Kind: flight.KindEvent, Name: "cache-miss:" + k.Term})
		}
		return nil, false
	}
	c.hits.Add(1)
	c.bytesSaved.Add(n)
	col := c.col()
	col.CountEvent(metrics.EventCacheHit)
	col.AddEvent(metrics.EventCacheBytesSaved, n)
	return l, true
}

// Add inserts a block under k, evicting least-recently-used entries
// until the shard fits its byte budget. Oversized blocks are rejected
// rather than wiping the whole shard. The list must be sorted (it is
// the drained transfer of one block) and must not be mutated afterwards.
func (c *Cache) Add(k Key, l postings.List) {
	if c == nil {
		return
	}
	n := int64(postings.EncodedSize(l))
	s := c.shardOf(k)
	if n > s.maxBytes {
		c.rejected.Add(1)
		return
	}
	var evicted int64
	s.mu.Lock()
	if el, ok := s.entries[k]; ok {
		e := el.Value.(*entry)
		s.bytes -= e.bytes
		e.list, e.bytes = l, n
		s.bytes += n
		s.lru.MoveToFront(el)
	} else {
		s.entries[k] = s.lru.PushFront(&entry{key: k, list: l, bytes: n})
		s.bytes += n
		c.inserts.Add(1)
	}
	for s.bytes > s.maxBytes {
		back := s.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, e.key)
		s.bytes -= e.bytes
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
		c.col().AddEvent(metrics.EventCacheEviction, evicted)
	}
}

// Flight is one in-flight fetch of a block, shared between the leader
// (who performs the fetch) and any coalesced waiters.
type Flight struct {
	done chan struct{}
	list postings.List
	err  error
}

// Wait blocks until the flight completes or the context expires, and
// returns the fetched block.
func (f *Flight) Wait(ctx context.Context) (postings.List, error) {
	select {
	case <-f.done:
		return f.list, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// BeginFlight joins or starts the fetch of block k. The second return
// is true for the leader, who must fetch the block and call Complete
// exactly once; false marks a coalesced waiter, who calls Wait. When
// the block landed in the cache between the caller's Get and this call,
// an already-completed flight is returned (leader false), so the caller
// needs no special case.
func (c *Cache) BeginFlight(k Key) (*Flight, bool) {
	if c == nil {
		// No cache: every caller leads its own fetch, no coalescing.
		return &Flight{done: make(chan struct{})}, true
	}
	c.flightMu.Lock()
	if f, ok := c.flights[k]; ok {
		c.flightMu.Unlock()
		c.coalesced.Add(1)
		c.col().CountEvent(metrics.EventCacheCoalesced)
		return f, false
	}
	// Double-check the cache under the flight lock: a leader that
	// completed between the caller's Get and now already stored the
	// block, and re-fetching it would waste a round trip.
	if l, ok := c.peek(k); ok {
		c.flightMu.Unlock()
		f := &Flight{done: make(chan struct{}), list: l}
		close(f.done)
		return f, false
	}
	f := &Flight{done: make(chan struct{})}
	c.flights[k] = f
	c.flightMu.Unlock()
	return f, true
}

// peek is Get without stats (the flight path accounts on its own).
func (c *Cache) peek(k Key) (postings.List, bool) {
	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*entry).list, true
	}
	return nil, false
}

// Complete finishes a flight led by the caller: the result is published
// to all waiters and, on success, stored in the cache.
func (c *Cache) Complete(k Key, f *Flight, l postings.List, err error) {
	f.list, f.err = l, err
	if c != nil {
		c.flightMu.Lock()
		if c.flights[k] == f {
			delete(c.flights, k)
		}
		c.flightMu.Unlock()
		if err == nil {
			c.Add(k, l)
		}
	}
	close(f.done)
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	Capacity   int64 `json:"capacity"`
	Shards     int   `json:"shards"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Coalesced  int64 `json:"coalesced"`
	Inserts    int64 `json:"inserts"`
	Evictions  int64 `json:"evictions"`
	Rejected   int64 `json:"rejected"`
	BytesSaved int64 `json:"bytes_saved"`
}

// Stats snapshots the counters. Safe on a nil cache (all zeros).
func (c *Cache) Stats() Stats {
	var st Stats
	if c == nil {
		return st
	}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Entries += len(s.entries)
		st.Bytes += s.bytes
		st.Capacity += s.maxBytes
		s.mu.Unlock()
	}
	st.Shards = len(c.shards)
	st.Hits = c.hits.Load()
	st.Misses = c.misses.Load()
	st.Coalesced = c.coalesced.Load()
	st.Inserts = c.inserts.Load()
	st.Evictions = c.evictions.Load()
	st.Rejected = c.rejected.Load()
	st.BytesSaved = c.bytesSaved.Load()
	return st
}

// Reset drops every entry and zeroes the counters (in-flight fetches
// are unaffected: their completions repopulate the empty cache).
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	for _, s := range c.shards {
		s.mu.Lock()
		s.entries = map[Key]*list.Element{}
		s.lru.Init()
		s.bytes = 0
		s.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.coalesced.Store(0)
	c.inserts.Store(0)
	c.evictions.Store(0)
	c.rejected.Store(0)
	c.bytesSaved.Store(0)
}
