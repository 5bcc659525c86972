// Package cost accumulates per-query operator actuals: how much work
// each phase of a query did, as opposed to how long it took (the trace
// plane) or how often it happened (the metrics plane). A single
// Counters value rides the query's context through the fetch, join and
// answer phases; every operator adds to it with atomic increments, so
// goroutine fan-out (parallel DPP block fetches, per-vector joins,
// per-peer answer RPCs) needs no locking and no plumbing beyond the
// context it already receives.
//
// The package sits below every layer that does query work — dpp,
// twigjoin, pattern, kadop — and imports none of them, so any operator
// can count without creating an import cycle.
package cost

import (
	"context"
	"sync/atomic"
)

// Counters is the mutable per-query accumulator. All fields are
// updated atomically; read a consistent view with Snapshot. The zero
// value is ready to use, and a nil *Counters is safe to call: every
// adder is a no-op, so operators count unconditionally and pay one nil
// check when no query is being measured.
type Counters struct {
	// Fetch phase: index retrieval work.
	rootFetches   atomic.Int64 // DPP root descriptors fetched
	blocksFetched atomic.Int64 // posting blocks transferred over the wire
	cacheHits     atomic.Int64 // blocks served from the local block cache
	wireBytes     atomic.Int64 // posting bytes that actually crossed the network
	replicaProbes atomic.Int64 // failover probes of a block's other holders
	shedRetries   atomic.Int64 // fetches retried after an overload shed

	// Join phase: index twig-join work.
	postingsScanned atomic.Int64 // postings pulled through join heads
	candidates      atomic.Int64 // per-node candidates collected before pruning
	pruned          atomic.Int64 // candidates discarded by structural pruning
	indexMatches    atomic.Int64 // document keys surviving the index join

	// Answers phase: second-phase document evaluation.
	docsEvaluated   atomic.Int64 // documents run through pattern matching
	elementsScanned atomic.Int64 // document elements visited while matching
	answers         atomic.Int64 // final matches produced
}

// Snapshot is an immutable copy of a Counters, safe to store, compare
// and serialise.
type Snapshot struct {
	RootFetches   int64 `json:"root_fetches"`
	BlocksFetched int64 `json:"blocks_fetched"`
	CacheHits     int64 `json:"cache_hits"`
	WireBytes     int64 `json:"wire_bytes"`
	ReplicaProbes int64 `json:"replica_probes"`
	ShedRetries   int64 `json:"shed_retries"`

	PostingsScanned int64 `json:"postings_scanned"`
	Candidates      int64 `json:"candidates"`
	Pruned          int64 `json:"pruned"`
	IndexMatches    int64 `json:"index_matches"`

	DocsEvaluated   int64 `json:"docs_evaluated"`
	ElementsScanned int64 `json:"elements_scanned"`
	Answers         int64 `json:"answers"`
}

// Snapshot reads every counter atomically. The fields are read
// independently, so a snapshot taken concurrently with updates is a
// point-in-time-per-field view — exact once the query has finished,
// which is when callers read it.
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		RootFetches:     c.rootFetches.Load(),
		BlocksFetched:   c.blocksFetched.Load(),
		CacheHits:       c.cacheHits.Load(),
		WireBytes:       c.wireBytes.Load(),
		ReplicaProbes:   c.replicaProbes.Load(),
		ShedRetries:     c.shedRetries.Load(),
		PostingsScanned: c.postingsScanned.Load(),
		Candidates:      c.candidates.Load(),
		Pruned:          c.pruned.Load(),
		IndexMatches:    c.indexMatches.Load(),
		DocsEvaluated:   c.docsEvaluated.Load(),
		ElementsScanned: c.elementsScanned.Load(),
		Answers:         c.answers.Load(),
	}
}

func (c *Counters) AddRootFetches(n int64) {
	if c != nil {
		c.rootFetches.Add(n)
	}
}

func (c *Counters) AddBlocksFetched(n int64) {
	if c != nil {
		c.blocksFetched.Add(n)
	}
}

func (c *Counters) AddCacheHits(n int64) {
	if c != nil {
		c.cacheHits.Add(n)
	}
}

func (c *Counters) AddWireBytes(n int64) {
	if c != nil {
		c.wireBytes.Add(n)
	}
}

func (c *Counters) AddReplicaProbes(n int64) {
	if c != nil {
		c.replicaProbes.Add(n)
	}
}

func (c *Counters) AddShedRetries(n int64) {
	if c != nil {
		c.shedRetries.Add(n)
	}
}

func (c *Counters) AddPostingsScanned(n int64) {
	if c != nil {
		c.postingsScanned.Add(n)
	}
}

func (c *Counters) AddCandidates(n int64) {
	if c != nil {
		c.candidates.Add(n)
	}
}

func (c *Counters) AddPruned(n int64) {
	if c != nil {
		c.pruned.Add(n)
	}
}

func (c *Counters) AddIndexMatches(n int64) {
	if c != nil {
		c.indexMatches.Add(n)
	}
}

func (c *Counters) AddDocsEvaluated(n int64) {
	if c != nil {
		c.docsEvaluated.Add(n)
	}
}

func (c *Counters) AddElementsScanned(n int64) {
	if c != nil {
		c.elementsScanned.Add(n)
	}
}

func (c *Counters) AddAnswers(n int64) {
	if c != nil {
		c.answers.Add(n)
	}
}

type ctxKey struct{}

// NewContext returns a context carrying c. Operators downstream
// recover it with FromContext.
func NewContext(ctx context.Context, c *Counters) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the query's Counters, or nil when the context
// carries none. The nil result is directly usable — every adder on a
// nil receiver is a no-op.
func FromContext(ctx context.Context) *Counters {
	c, _ := ctx.Value(ctxKey{}).(*Counters)
	return c
}
