package kadop

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"kadop/internal/dpp"
	"kadop/internal/metrics"
	"kadop/internal/obs/cost"
	"kadop/internal/obs/flight"
	"kadop/internal/obs/stats"
	"kadop/internal/pattern"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/trace"
	"kadop/internal/twigjoin"
)

// QueryOptions tune one query execution.
type QueryOptions struct {
	// Strategy selects the phase-one transfer plan (default
	// Conventional).
	Strategy Strategy
	// IndexOnly skips phase two: the result carries the candidate
	// documents and the index matches but no final answers. The paper's
	// response-time experiments measure exactly this phase.
	IndexOnly bool
	// ParallelJoin runs the Section 4.2 parallel twig join: the document
	// space is cut at the DPP block boundaries of the query's most
	// partitioned term, and up to this many vector joins run
	// concurrently, each fetching only its slice of every list. Answers
	// stream unordered (the paper relaxes result order for time to first
	// answer). 0 or 1 disables; requires the DPP.
	ParallelJoin int
	// SubQuery restricts Bloom filtering to the sub-pattern rooted at
	// the node with this pre-order position (SubQueryReducer only).
	SubQuery []int
	// AllowPartial tolerates unreachable document peers in phase two:
	// their answers are omitted and the result is marked incomplete,
	// matching the paper's timeout behaviour ("in this case, the answer
	// is incomplete"). Without it, a failed peer fails the query.
	AllowPartial bool
	// DocType restricts the query to documents published with this
	// type; with the DPP enabled, blocks whose type sets exclude it are
	// not transferred (the type filtering of Section 4.1).
	DocType string
}

// Strategy is a phase-one query evaluation strategy.
type Strategy int

// Strategies of Section 5.3 plus the conventional baseline.
const (
	// Conventional transfers every term's full posting list to the
	// query peer.
	Conventional Strategy = iota
	// ABReducer forwards Ancestor Bloom filters root-to-leaves.
	ABReducer
	// DBReducer forwards Descendant Bloom filters leaves-to-root.
	DBReducer
	// BloomReducer combines both passes (AB top-down, then DB
	// bottom-up).
	BloomReducer
	// SubQueryReducer applies DBReducer to a low-selectivity sub-query
	// only (the fourth strategy of Figure 7(c)).
	SubQueryReducer
	// AutoStrategy picks a plan per query with the paper's heuristic
	// (Section 5.4): when the stored posting-list sizes reveal a branch
	// of guaranteed low selectivity, filter that sub-query with
	// structural Bloom filters; otherwise ship full lists — filtering a
	// non-selective query costs more than it saves (Figure 7(c)).
	AutoStrategy
)

func (s Strategy) String() string {
	switch s {
	case Conventional:
		return "conventional"
	case ABReducer:
		return "ab-reducer"
	case DBReducer:
		return "db-reducer"
	case BloomReducer:
		return "bloom-reducer"
	case SubQueryReducer:
		return "subquery-reducer"
	case AutoStrategy:
		return "auto"
	}
	return fmt.Sprintf("strategy(%d)", s)
}

// Result is the outcome of a query.
type Result struct {
	// Matches are the final answer tuples (empty when IndexOnly).
	Matches []twigjoin.Match
	// Docs are the candidate documents identified by the index query.
	Docs []sid.DocKey
	// IndexMatches counts the tuples produced by the index twig join.
	IndexMatches int
	// IndexTime is the duration of phase one.
	IndexTime time.Duration
	// FirstAnswer is the time to the first index answer.
	FirstAnswer time.Duration
	// Total is the full duration including phase two.
	Total time.Duration
	// Plans describes the DPP fetch decisions per term.
	Plans []*dpp.FetchPlan
	// Incomplete reports that some document peers were unreachable in
	// phase two and their answers are missing (AllowPartial only).
	Incomplete bool
	// FailedPeers counts the unreachable document peers.
	FailedPeers int
	// Trace is the query's span timeline, set when the querying node has
	// a tracer installed (or the caller's context already carried a
	// span). Render it with Trace.Tree() — the kadop-query -explain
	// output.
	Trace *trace.Trace
	// Cost is the query's operator actuals: the work every phase did
	// (postings scanned, blocks fetched, bytes moved, candidates
	// pruned, documents evaluated). Always populated.
	Cost cost.Snapshot
	// Estimate is the pre-execution cost prediction from the peer's
	// statistics registry, nil when the per-term cardinalities were
	// unavailable (plain transfers of terms this peer never published).
	// FormatExplain renders Estimate vs Cost side by side.
	Estimate *stats.Estimate
}

// Query evaluates a tree-pattern query: phase one computes the
// candidate documents from the distributed index, phase two retrieves
// the answers from the document peers.
func (p *Peer) Query(q *pattern.Query, opts QueryOptions) (*Result, error) {
	return p.QueryContext(context.Background(), q, opts)
}

// QueryContext is Query under a caller-controlled deadline. The
// deadline bounds every transfer of both phases; with AllowPartial the
// query degrades to an explicitly incomplete result when peers fail or
// the budget runs out mid-phase-two, instead of hanging or erroring.
// When the peer's Config.QueryLog is set, every sampled query also
// emits one structured JSONL record.
func (p *Peer) QueryContext(ctx context.Context, q *pattern.Query, opts QueryOptions) (*Result, error) {
	ql := p.cfg.QueryLog
	sampled := ql.Sample()
	if ql == nil && p.cfg.SlowQuery <= 0 {
		res, err := p.queryContext(ctx, q, opts)
		p.countQuery(err, false)
		return res, err
	}
	snap := p.logSnapshot()
	start := time.Now()
	res, err := p.queryContext(ctx, q, opts)
	// Slow-query capture bypasses sampling: the latency tail is exactly
	// what sampling must not drop.
	slow := p.cfg.SlowQuery > 0 && time.Since(start) >= p.cfg.SlowQuery
	p.countQuery(err, slow)
	if ql != nil && (sampled || slow) {
		rec := p.buildLogRecord(q, opts, snap, res, err)
		rec.Slow = slow
		if res != nil && res.Trace != nil {
			rec.TraceID = fmt.Sprintf("%016x", res.Trace.ID())
			if slow {
				// The full span tree rides the slow record, so the log line
				// alone explains where the time went — no need to catch the
				// trace before it rotates out of the tracer ring.
				rec.Trace = res.Trace.Export()
			}
		}
		ql.Log(rec)
	}
	return res, err
}

// countQuery maintains the peer's query counters in the node registry —
// the availability feed of the SLO engine.
func (p *Peer) countQuery(err error, slow bool) {
	reg := p.node.Registry()
	reg.Counter("kadop_queries_total", "Queries evaluated by this peer.").Add(1)
	if err != nil {
		reg.Counter("kadop_query_errors_total", "Queries that failed (after retries and partial-result handling).").Add(1)
	}
	if slow {
		reg.Counter("kadop_slow_queries_total", "Queries at or over the Config.SlowQuery capture threshold.").Add(1)
	}
}

// queryContext is the query body; QueryContext wraps it with the
// structured query log.
func (p *Peer) queryContext(ctx context.Context, q *pattern.Query, opts QueryOptions) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	col := p.node.Metrics()
	// Open the query's root span: join the caller's trace when the
	// context already carries one, else start a fresh trace when the
	// node has a tracer. With neither, all downstream instrumentation
	// reduces to its no-op fast paths.
	var root *trace.Span
	if trace.FromContext(ctx) != nil {
		ctx, root = trace.StartSpan(ctx, "query")
	} else if tr := p.node.Tracer(); tr != nil {
		ctx, root = tr.StartTrace(ctx, "query")
	}
	var classBase map[metrics.Class]int64
	if root != nil {
		root.SetAttr("query", q.String())
		root.SetAttr("strategy", opts.Strategy.String())
		classBase = col.ClassBytes()
	}
	// Every query gets a cost accumulator: the fetch, join and answer
	// operators find it on the context and add their actuals as they
	// work, regardless of tracing.
	counters := new(cost.Counters)
	ctx = cost.NewContext(ctx, counters)
	start := time.Now()
	res := &Result{Trace: root.Trace()}
	defer func() {
		dur := time.Since(start)
		var traceID uint64
		if t := root.Trace(); t != nil {
			traceID = t.ID()
		}
		// Traced queries leave their trace id as the bucket's exemplar, so
		// /metrics links a p99 bucket straight to a captured trace.
		col.ObserveExemplar(metrics.OpQueryTotal, dur, traceID)
		if fr := p.node.Flight(); fr != nil {
			fr.Record(flight.Event{Kind: flight.KindQuery, Name: q.String(), TraceID: traceID, Dur: dur})
		}
		if root != nil {
			// Per-class byte deltas: what this query moved, attributed the
			// same way the collector attributes traffic.
			for class, now := range col.ClassBytes() {
				if d := now - classBase[class]; d > 0 {
					root.SetInt("bytes."+string(class), d)
				}
			}
			root.Finish()
		}
	}()

	iq, err := ProjectIndexQuery(q)
	if err != nil {
		return nil, err
	}
	docs, err := p.indexQuery(ctx, iq, opts, res, start)
	if err != nil {
		return nil, err
	}
	res.Docs = docs
	res.IndexTime = time.Since(start)
	col.Observe(metrics.OpQueryIndex, res.IndexTime)
	// Phase one is done: predict its cost from the statistics registry
	// (using the selectivities as they were BEFORE this query), record
	// the estimation error, then let the query train the EWMAs.
	p.observeQueryStats(iq, res)

	if !opts.IndexOnly {
		phaseStart := time.Now()
		actx, asp := trace.StartSpan(ctx, "phase:answers")
		matches, failed, err := p.secondPhase(actx, q, docs)
		col.Observe(metrics.OpSecondPhase, time.Since(phaseStart))
		if asp != nil {
			asp.SetInt("matches", int64(len(matches)))
			asp.SetInt("failed-peers", int64(failed))
			asp.Finish()
		}
		if err != nil && !opts.AllowPartial {
			return nil, err
		}
		res.Matches = matches
		res.FailedPeers = failed
		res.Incomplete = failed > 0
	}
	res.Total = time.Since(start)
	res.Cost = counters.Snapshot()
	if root != nil {
		root.SetInt("answers", int64(len(res.Matches)))
		root.SetInt("candidate-docs", int64(len(res.Docs)))
		if c := res.Cost; c != (cost.Snapshot{}) {
			root.SetInt("postings-scanned", c.PostingsScanned)
			root.SetInt("blocks-fetched", c.BlocksFetched)
			root.SetInt("wire-bytes", c.WireBytes)
			root.SetInt("pruned", c.Pruned)
		}
	}
	return res, nil
}

// queryEdges flattens an index query's tree edges into the statistics
// registry's selectivity keys.
func queryEdges(iq *indexQuery) []stats.Edge {
	var edges []stats.Edge
	for _, sub := range iq.subtrees {
		var walk func(n *pattern.Node)
		walk = func(n *pattern.Node) {
			for _, c := range n.Children {
				edges = append(edges, stats.Edge{
					Parent: n.Term.Key(),
					Axis:   c.Axis.String(),
					Child:  c.Term.Key(),
				})
				walk(c)
			}
		}
		if sub.Root != nil {
			walk(sub.Root)
		}
	}
	return edges
}

// observeQueryStats closes the estimation loop after phase one: it
// gathers the per-term planned posting counts (from the DPP fetch
// plans when available, else the local registry), asks the registry
// for a prediction, records the relative cardinality error against
// the twig join's actual match count, and finally feeds the actuals
// back into the selectivity EWMAs.
func (p *Peer) observeQueryStats(iq *indexQuery, res *Result) {
	counts := map[string]int64{}
	var blocks int64
	if len(res.Plans) > 0 {
		for _, plan := range res.Plans {
			counts[plan.Term] += int64(plan.Postings)
			n := int64(plan.Fetched)
			if plan.Inline && plan.Postings > 0 {
				n = 1
			}
			blocks += n
		}
	} else if p.stats != nil {
		// Plain transfers carry no plan; the local registry knows the
		// cardinalities only for terms this peer published itself.
		for _, sub := range iq.subtrees {
			for _, t := range sub.Terms() {
				ts, ok := p.stats.Term(t.Key())
				if !ok {
					return // unknown term: no honest estimate exists
				}
				counts[t.Key()] = ts.Postings
			}
		}
	}
	if len(counts) == 0 {
		return
	}
	edges := queryEdges(iq)
	est := p.stats.Estimate(counts, blocks, edges)
	res.Estimate = &est
	actual := int64(res.IndexMatches)
	relErr := est.Matches - float64(actual)
	if relErr < 0 {
		relErr = -relErr
	}
	div := float64(actual)
	if div < 1 {
		div = 1
	}
	p.stats.ObserveError(relErr / div)
	minCount := int64(-1)
	for _, n := range counts {
		if minCount < 0 || n < minCount {
			minCount = n
		}
	}
	p.stats.ObserveQuery(minCount, actual, edges)
}

// indexQuery runs phase one and returns the candidate document keys in
// ascending order.
func (p *Peer) indexQuery(ctx context.Context, iq *indexQuery, opts QueryOptions, res *Result, start time.Time) ([]sid.DocKey, error) {
	var docs []sid.DocKey
	for si, sub := range iq.subtrees {
		subDocs, err := p.indexJoin(ctx, sub, opts, res, start)
		if err != nil {
			return nil, err
		}
		if si == 0 {
			docs = subDocs
			continue
		}
		// Wildcard projection split the pattern: candidate documents
		// must match every connected subtree. Both lists ascend.
		kept := docs[:0]
		for _, d := range docs {
			for len(subDocs) > 0 && subDocs[0].Compare(d) < 0 {
				subDocs = subDocs[1:]
			}
			if len(subDocs) > 0 && subDocs[0] == d {
				kept = append(kept, d)
			}
		}
		docs = kept
	}
	return docs, nil
}

// timedStream decorates a posting stream to measure the time its
// consumer spends blocked in Next and the postings delivered. The twig
// join's wall time splits into transfer (summed blocked time) and
// compute (the rest) — the paper's Figure 5 decomposition, per query.
// Only traced queries pay the two clock reads per posting.
type timedStream struct {
	s    postings.Stream
	wait time.Duration
	n    int64
}

func (t *timedStream) Next() (sid.Posting, error) {
	start := time.Now()
	p, err := t.s.Next()
	t.wait += time.Since(start)
	if err == nil {
		t.n++
	}
	return p, err
}

// wrapTimed replaces every stream with a timing decorator in place and
// returns the decorators for later accounting.
func wrapTimed(streams map[*pattern.Node]postings.Stream) []*timedStream {
	timed := make([]*timedStream, 0, len(streams))
	for n, s := range streams {
		ts := &timedStream{s: s}
		streams[n] = ts
		timed = append(timed, ts)
	}
	return timed
}

// recordJoinPhases attributes one twig join's wall time to transfer and
// compute, both to the collector's histograms and — when traced — as
// phase spans under the span carried by ctx.
func (p *Peer) recordJoinPhases(ctx context.Context, joinStart time.Time, joinWall time.Duration, timed []*timedStream, matches int) {
	var blocked time.Duration
	var moved int64
	for _, t := range timed {
		blocked += t.wait
		moved += t.n
	}
	compute := joinWall - blocked
	if compute < 0 {
		compute = 0
	}
	col := p.node.Metrics()
	col.Observe(metrics.OpPostingsTransfer, blocked)
	col.Observe(metrics.OpTwigJoin, compute)
	if parent := trace.FromContext(ctx); parent != nil {
		tsp := parent.Child("phase:transfer", joinStart, blocked)
		tsp.SetInt("postings", moved)
		jsp := parent.Child("phase:twigjoin", joinStart, compute)
		jsp.SetInt("matches", int64(matches))
	}
}

// indexJoin evaluates one connected subtree of the index query: a
// holistic twig join per vector of the document space. By default the
// whole space is one vector. With QueryOptions.ParallelJoin it is cut
// at the block boundaries of the most partitioned term (Section 4.2)
// and the vectors join concurrently, each fetching only its document
// slice of every list; their ranges are disjoint, so answers need no
// deduplication, and they are produced out of order, improving the
// time to the first answer.
func (p *Peer) indexJoin(ctx context.Context, sub *pattern.Query, opts QueryOptions, res *Result, start time.Time) ([]sid.DocKey, error) {
	var results []vectorResult
	if opts.ParallelJoin > 1 && p.dpp != nil && opts.Strategy == Conventional {
		terms, _ := termKeys(sub.Nodes())
		reads, err := p.planReads(ctx, terms, opts.DocType, false)
		if err != nil {
			return nil, err
		}
		if reads.span.hi.Compare(reads.span.lo) < 0 {
			return nil, nil // empty intersection: no term can contribute
		}
		var widest *dpp.Root
		for _, t := range terms {
			if r := reads.roots[t]; widest == nil || len(r.Blocks) > len(widest.Blocks) {
				widest = r
			}
		}
		// Cut points: the widest term's block boundaries, clipped to the
		// document interval. Boundary documents belong to the vector of the
		// block holding their first postings; since vectors are whole-doc
		// ranges, each document joins in exactly one vector.
		vectors := cutVectors(widest, reads.span.lo, reads.span.hi, opts.ParallelJoin)
		results = make([]vectorResult, len(vectors))
		sem := make(chan struct{}, opts.ParallelJoin)
		var wg sync.WaitGroup
		for vi, v := range vectors {
			wg.Add(1)
			sem <- struct{}{}
			go func(vi int, v docRange) {
				defer wg.Done()
				defer func() { <-sem }()
				vctx, vsp := trace.StartSpan(ctx, "vector")
				if vsp != nil {
					vsp.SetInt("vector", int64(vi))
					defer vsp.Finish()
				}
				results[vi] = p.joinVector(vctx, sub, opts, reads, v, start)
			}(vi, v)
		}
		wg.Wait()
	} else {
		// One vector, joined on the query's own goroutine: handing it to
		// another would cost every query a scheduler round trip.
		results = []vectorResult{p.joinVector(ctx, sub, opts, nil, allDocs, start)}
	}

	// Vectors ascend and each emits its documents in order, so the
	// concatenation is sorted.
	var docs []sid.DocKey
	var first time.Duration
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		res.Plans = append(res.Plans, r.plans...)
		res.IndexMatches += r.matches
		if r.matches > 0 && (first == 0 || r.first < first) {
			first = r.first
		}
		docs = append(docs, r.docs...)
	}
	if res.FirstAnswer == 0 {
		res.FirstAnswer = first
	}
	return docs, nil
}

// vectorResult is what one vector's join contributes to the Result.
type vectorResult struct {
	docs    []sid.DocKey
	plans   []*dpp.FetchPlan
	matches int
	first   time.Duration // since the query's start; set when matches > 0
	err     error
}

// joinVector fetches one vector's streams and runs the twig join over
// them.
func (p *Peer) joinVector(ctx context.Context, sub *pattern.Query, opts QueryOptions, reads *termReads, v docRange, start time.Time) (out vectorResult) {
	traced := trace.FromContext(ctx) != nil
	fctx, fsp := trace.StartSpan(ctx, "phase:fetch")
	streams, plans, err := p.fetchStreams(fctx, sub, opts, reads, v)
	fsp.Finish()
	if err != nil {
		out.err = err
		return out
	}
	out.plans = plans
	var timed []*timedStream
	if traced {
		timed = wrapTimed(streams)
	}
	joinStart := time.Now()
	out.err = twigjoin.RunContext(ctx, sub, streams, func(m twigjoin.Match) error {
		if out.matches == 0 {
			out.first = time.Since(start)
		}
		out.matches++
		if n := len(out.docs); n == 0 || out.docs[n-1] != m.Doc {
			out.docs = append(out.docs, m.Doc)
		}
		return nil
	})
	if traced {
		p.recordJoinPhases(ctx, joinStart, time.Since(joinStart), timed, out.matches)
	}
	return out
}

// docRange is a closed interval of the document space: one vector's
// slice, or the [min, max] interval of a term set.
type docRange struct {
	lo, hi sid.DocKey
}

// allDocs excludes nothing; a read over it sends no interval filter.
var allDocs = docRange{lo: sid.MinDocKey, hi: sid.MaxDocKey}

// cutVectors derives disjoint whole-document ranges covering [lo, hi]
// from a root's block boundaries, at most maxVectors of them (adjacent
// blocks merge when there are more blocks than the parallelism allows).
func cutVectors(widest *dpp.Root, lo, hi sid.DocKey, maxVectors int) []docRange {
	var cuts []sid.DocKey // inclusive upper bounds
	if widest != nil {
		for _, b := range widest.Blocks {
			k := b.Hi.Key()
			if k.Compare(lo) < 0 || k.Compare(hi) >= 0 {
				continue
			}
			if len(cuts) == 0 || cuts[len(cuts)-1].Compare(k) < 0 {
				cuts = append(cuts, k)
			}
		}
	}
	cuts = append(cuts, hi)
	// Merge down to maxVectors ranges.
	if maxVectors < 1 {
		maxVectors = 1
	}
	for len(cuts) > maxVectors {
		merged := cuts[:0]
		for i := 0; i < len(cuts); i += 2 {
			if i+1 < len(cuts) {
				merged = append(merged, cuts[i+1])
			} else {
				merged = append(merged, cuts[i])
			}
		}
		cuts = merged
	}
	var out []docRange
	cur := lo
	for _, c := range cuts {
		out = append(out, docRange{lo: cur, hi: c})
		cur = sid.DocKey{Peer: c.Peer, Doc: c.Doc + 1}
		if c.Doc == ^sid.DocID(0) {
			cur = sid.DocKey{Peer: c.Peer + 1, Doc: 0}
		}
	}
	return out
}

// fetchStreams obtains one posting stream per query node for one
// vector of a subtree, according to the selected strategy. reads is the
// vector cutter's plan; nil means the vector is the whole subtree, and
// the reads are planned here and span their own document interval.
func (p *Peer) fetchStreams(ctx context.Context, sub *pattern.Query, opts QueryOptions, reads *termReads, v docRange) (map[*pattern.Node]postings.Stream, []*dpp.FetchPlan, error) {
	nodes := sub.Nodes()
	terms, dup := termKeys(nodes)
	// The reads are planned before the strategy is chosen: the roots
	// that locate the blocks also carry every count the chooser and the
	// sub-query selection need, so neither issues an RPC of its own.
	sized := opts.Strategy == AutoStrategy || (opts.Strategy == SubQueryReducer && len(opts.SubQuery) == 0)
	if reads == nil && (sized || opts.Strategy == Conventional) {
		var err error
		if reads, err = p.planReads(ctx, terms, opts.DocType, sized); err != nil {
			return nil, nil, err
		}
		v = reads.span
	}
	if opts.Strategy == AutoStrategy {
		opts.Strategy = chooseStrategy(sub, reads)
	}
	if opts.Strategy != Conventional {
		lists, err := p.reducedLists(ctx, sub, opts, reads)
		if err != nil {
			return nil, nil, err
		}
		streams := map[*pattern.Node]postings.Stream{}
		for i, n := range nodes {
			streams[n] = postings.NewSliceStream(lists[i])
		}
		return streams, nil, nil
	}
	lists, plans, err := p.openStreams(ctx, reads, v, dup)
	if err != nil {
		return nil, nil, err
	}
	streams, err := assignStreams(nodes, lists, dup)
	return streams, plans, err
}

// termReads is what the reads of one term set share. Under the DPP
// that is the terms' root blocks and what they imply: the [min, max]
// document interval of Section 4.2, the type constraint of Section 4.1
// and every term's posting count. Without the DPP a list has no
// conditions to select by: roots is nil, span is allDocs, and counts
// holds the home peers' answers when the plan asked for sizes.
type termReads struct {
	terms   []string
	roots   map[string]*dpp.Root
	counts  map[string]int
	span    docRange
	allowed []string
}

// count is a term's posting count, and whether its list has overflowed
// into blocks held away from its home peer.
func (r *termReads) count(term string) (n int, overflowed bool) {
	if root := r.roots[term]; root != nil {
		return root.Postings(), len(root.Blocks) > 0
	}
	return r.counts[term], false
}

// planReads fetches the root blocks of terms (distinct keys), all at
// once, and derives the interval and type constraint from them. sized
// asks for the terms' posting counts as well: the roots carry them, so
// only a deployment without the DPP has to ask the home peers.
func (p *Peer) planReads(ctx context.Context, terms []string, docType string, sized bool) (*termReads, error) {
	reads := &termReads{terms: terms, span: allDocs}
	var mu sync.Mutex
	if p.dpp == nil {
		if !sized {
			return reads, nil
		}
		reads.counts = make(map[string]int, len(terms))
		return reads, eachTerm(terms, func(t string) error {
			n, err := p.termCount(ctx, t)
			mu.Lock()
			reads.counts[t] = n
			mu.Unlock()
			return err
		})
	}
	reads.roots = make(map[string]*dpp.Root, len(terms))
	err := eachTerm(terms, func(t string) error {
		r, err := p.dpp.Root(ctx, t)
		mu.Lock()
		reads.roots[t] = r
		mu.Unlock()
		return err
	})
	if err != nil {
		return nil, err
	}
	reads.span.lo, reads.span.hi = docInterval(reads.roots)
	reads.allowed = allowedTypes(reads.roots, docType)
	return reads, nil
}

// eachTerm runs fn for every term concurrently — the lookups and round
// trips of a plan overlap instead of queueing — and returns the first
// error in term order.
func eachTerm(terms []string, fn func(term string) error) error {
	errs := make([]error, len(terms))
	var wg sync.WaitGroup
	for i, t := range terms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(t)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// openStreams is the one way this package reads posting lists: it
// opens one stream per planned term over the documents in r. Under the
// DPP that is the parallel block fetch with condition filtering, which
// degenerates to the pipelined get for a list still inline at its home
// peer; without it, the pipelined get of the whole list. Terms in dup
// label several query nodes and are buffered so each node can replay
// them. Wire bytes are charged to the query's cost accumulator as the
// consumer pulls.
func (p *Peer) openStreams(ctx context.Context, reads *termReads, r docRange, dup map[string]bool) (map[string]postings.Stream, []*dpp.FetchPlan, error) {
	streams := make(map[string]postings.Stream, len(reads.terms))
	var plans []*dpp.FetchPlan
	for _, t := range reads.terms {
		var s postings.Stream
		if p.dpp != nil {
			fs, plan, err := p.dpp.FetchWithRoot(ctx, reads.roots[t], dpp.FetchOptions{
				Parallel: p.cfg.Parallel,
				Filter:   r != allDocs, FilterLo: r.lo, FilterHi: r.hi,
				AllowedTypes: reads.allowed,
			})
			if err != nil {
				return nil, nil, err
			}
			s, plans = fs, append(plans, plan)
		} else {
			gs, err := p.node.GetStream(ctx, t)
			if err != nil {
				return nil, nil, err
			}
			s = &wireCountStream{s: gs, c: cost.FromContext(ctx)}
		}
		if dup[t] {
			l, err := postings.Drain(s)
			if err != nil {
				return nil, nil, err
			}
			s = postings.NewSliceStream(l)
		}
		streams[t] = s
	}
	return streams, plans, nil
}

// wireCountStream attributes a plain pipelined get's posting bytes to
// the query's cost accumulator as the consumer pulls them.
type wireCountStream struct {
	s postings.Stream
	c *cost.Counters
}

func (w *wireCountStream) Next() (sid.Posting, error) {
	p, err := w.s.Next()
	if err == nil {
		w.c.AddWireBytes(metrics.PostingWireBytes)
	}
	return p, err
}

// termKeys lists the distinct term keys of nodes in pre-order and
// reports which of them label more than one node.
func termKeys(nodes []*pattern.Node) (terms []string, dup map[string]bool) {
	seen := map[string]bool{}
	dup = map[string]bool{}
	for _, n := range nodes {
		k := n.Term.Key()
		if seen[k] {
			dup[k] = true
			continue
		}
		seen[k] = true
		terms = append(terms, k)
	}
	return terms, dup
}

// assignStreams gives each query node its stream; duplicated terms get
// independent replays of the buffered list.
func assignStreams(nodes []*pattern.Node, lists map[string]postings.Stream, dup map[string]bool) (map[*pattern.Node]postings.Stream, error) {
	streams := map[*pattern.Node]postings.Stream{}
	for _, n := range nodes {
		k := n.Term.Key()
		s, ok := lists[k]
		if !ok {
			return nil, fmt.Errorf("kadop: no stream fetched for term %q", k)
		}
		if dup[k] {
			ss, ok := s.(*postings.SliceStream)
			if !ok {
				return nil, fmt.Errorf("kadop: duplicated term %q not buffered", k)
			}
			streams[n] = postings.NewSliceStream(ss.Rest())
		} else {
			streams[n] = s
		}
	}
	return streams, nil
}

// docInterval computes the [min, max] document interval of Section 4.2
// from the roots of all the query's terms: every answer document lies
// within every term's own document range, so the interval is the
// intersection — [max of the minima, min of the maxima].
func docInterval(roots map[string]*dpp.Root) (lo, hi sid.DocKey) {
	lo = sid.MinDocKey
	hi = sid.MaxDocKey
	for _, r := range roots {
		rlo, rhi, known := rootDocRange(r)
		if !known {
			// A term with no postings: the join is empty anyway; an empty
			// interval lets the fetches skip everything.
			return sid.MaxDocKey, sid.MinDocKey
		}
		if rlo.Compare(lo) > 0 {
			lo = rlo
		}
		if rhi.Compare(hi) < 0 {
			hi = rhi
		}
	}
	return lo, hi
}

func rootDocRange(r *dpp.Root) (lo, hi sid.DocKey, ok bool) {
	if len(r.Blocks) > 0 {
		return r.Blocks[0].Lo.Key(), r.Blocks[len(r.Blocks)-1].Hi.Key(), true
	}
	if r.Count > 0 {
		return r.Lo.Key(), r.Hi.Key(), true
	}
	return sid.DocKey{}, sid.DocKey{}, false
}

// secondPhase contacts the peers holding candidate documents and
// gathers the final answers. It returns the matches, the number of
// unreachable peers, and the first error encountered.
//
// Each document peer answers in (document, postings) order, so the
// replies concatenated in ascending peer order are already the result
// order; the sort only runs if a reply breaks it.
func (p *Peer) secondPhase(ctx context.Context, q *pattern.Query, docs []sid.DocKey) ([]twigjoin.Match, int, error) {
	cc := cost.FromContext(ctx)
	byPeer := map[sid.PeerID][]sid.DocKey{}
	for _, d := range docs {
		byPeer[d.Peer] = append(byPeer[d.Peer], d)
	}
	peers := make([]sid.PeerID, 0, len(byPeer))
	for pid := range byPeer {
		peers = append(peers, pid)
	}
	slices.Sort(peers)
	var (
		mu      sync.Mutex
		replies = make([][]twigjoin.Match, len(peers))
		wg      sync.WaitGroup
		errOnce sync.Once
		firstE  error
		failed  int
	)
	for i, pid := range peers {
		wg.Add(1)
		go func(i int, pid sid.PeerID, keys []sid.DocKey) {
			defer wg.Done()
			fail := func(err error) {
				errOnce.Do(func() { firstE = err })
				mu.Lock()
				failed++
				mu.Unlock()
			}
			contact, err := p.contactOf(ctx, pid)
			if err != nil {
				fail(err)
				return
			}
			blob := appendStr(nil, q.String())
			blob = append(blob, encodeDocKeys(keys)...)
			blob = appendUint(blob, answerFormatGrouped)
			out, err := p.node.CallProcOn(ctx, contact, "", procAnswer, blob)
			if err != nil {
				// The paper detects faulty peers with time-outs and accepts
				// an incomplete answer; we record the failure and keep going.
				fail(err)
				return
			}
			ms, st, err := decodeMatches(out)
			if err != nil {
				fail(err)
				return
			}
			// The document peer's evaluation work rides back on the
			// response trailer; attribute it to this query's actuals.
			cc.AddDocsEvaluated(st.docsEvaluated)
			cc.AddElementsScanned(st.elementsScanned)
			cc.AddAnswers(int64(len(ms)))
			replies[i] = ms
		}(i, pid, byPeer[pid])
	}
	wg.Wait()
	all := slices.Concat(replies...)
	less := func(i, j int) bool {
		if c := all[i].Doc.Compare(all[j].Doc); c != 0 {
			return c < 0
		}
		for k := range all[i].Postings {
			if k >= len(all[j].Postings) {
				return false
			}
			if c := all[i].Postings[k].Compare(all[j].Postings[k]); c != 0 {
				return c < 0
			}
		}
		return false
	}
	if !sort.SliceIsSorted(all, less) {
		sort.Slice(all, less)
	}
	return all, failed, firstE
}

// indexQuery is a query projected for index evaluation: wildcards
// removed, possibly splitting the pattern into connected subtrees.
type indexQuery struct {
	subtrees []*pattern.Query
}

// ProjectIndexQuery removes wildcard nodes from a query, reattaching
// their children to the nearest non-wildcard ancestor with a descendant
// axis. The result is a superset query: it never misses an answer
// document (completeness), though it may admit documents the full
// pattern rejects (the imprecision discussed in Section 2). If the
// root itself is a wildcard, the pattern may split into independent
// subtrees whose document sets intersect.
func ProjectIndexQuery(q *pattern.Query) (*indexQuery, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var roots []*pattern.Node
	var project func(n *pattern.Node, relaxed bool) []*pattern.Node
	project = func(n *pattern.Node, relaxed bool) []*pattern.Node {
		if n.IsWildcard() {
			var out []*pattern.Node
			for _, c := range n.Children {
				out = append(out, project(c, true)...)
			}
			return out
		}
		clone := &pattern.Node{Term: n.Term, Axis: n.Axis}
		if relaxed && clone.Axis == pattern.Child {
			clone.Axis = pattern.Descendant
		}
		for _, c := range n.Children {
			clone.Children = append(clone.Children, project(c, false)...)
		}
		return []*pattern.Node{clone}
	}
	roots = project(q.Root, false)
	if len(roots) == 0 {
		return nil, fmt.Errorf("kadop: query has no indexable structure")
	}
	iq := &indexQuery{}
	for _, r := range roots {
		sub := &pattern.Query{Root: r}
		if err := sub.Validate(); err != nil {
			return nil, fmt.Errorf("kadop: index projection: %w", err)
		}
		iq.subtrees = append(iq.subtrees, sub)
	}
	return iq, nil
}

// selectivityRatio is the cost-model threshold of AutoStrategy: a
// sub-query counts as selective when its smallest leaf list is at
// least this many times smaller than the postings a filter can save on
// the way up from it, which makes the Bloom-filter exchange (sized by
// the small list) cheap relative to the transfer it saves.
const selectivityRatio = 20

// chooseStrategy implements the paper's plan-selection heuristic from
// the posting-list sizes the planned reads already hold, for the
// sub-query selectSubQuery would filter: the path from the root to the
// smallest leaf. A filter saves postings only on an ancestor list its
// home peer still holds whole. A reducer step on an overflowed list
// first pulls every block back to the home peer, on the filter chain's
// critical path, and then pushes the survivors on — more bytes over
// more serial hops than fetching those blocks directly, in parallel
// with every other list — so an overflowed list on the path is priced
// at its size instead.
func chooseStrategy(sub *pattern.Query, reads *termReads) Strategy {
	minLeaf, saved := -1, 0
	var walk func(n *pattern.Node, net int)
	walk = func(n *pattern.Node, net int) {
		c, overflowed := reads.count(n.Term.Key())
		switch {
		case overflowed:
			net -= c
		case len(n.Children) > 0:
			net += c
		}
		if len(n.Children) == 0 && (minLeaf < 0 || c < minLeaf) {
			minLeaf, saved = c, net
		}
		for _, ch := range n.Children {
			walk(ch, net)
		}
	}
	walk(sub.Root, 0)
	if minLeaf >= 0 && minLeaf*selectivityRatio <= saved {
		return SubQueryReducer
	}
	return Conventional
}

// allowedTypes computes the type constraint of Section 4.1: every
// answer document's type must appear in every term's type set, so the
// allowed set is the intersection of the known sets (terms without
// type information impose no constraint), further narrowed by an
// explicit query type. nil means unconstrained; an empty non-nil set
// means no document can match and every typed block is skipped.
func allowedTypes(roots map[string]*dpp.Root, queryType string) []string {
	var sets [][]string
	if queryType != "" {
		sets = append(sets, []string{queryType})
	}
	for _, r := range roots {
		if set := rootTypes(r); len(set) > 0 {
			sets = append(sets, set)
		}
	}
	if len(sets) == 0 {
		return nil
	}
	allowed := []string{}
candidates:
	for _, t := range sets[0] {
		for _, set := range sets[1:] {
			if !slices.Contains(set, t) {
				continue candidates
			}
		}
		allowed = append(allowed, t)
	}
	return allowed
}

// rootTypes is the set of document types a term's postings come from:
// the inline list's, or the union over the blocks'. nil means unknown
// (the list or one of its blocks is untyped).
func rootTypes(r *dpp.Root) []string {
	if len(r.Blocks) == 0 {
		return r.Types
	}
	var set []string
	for _, b := range r.Blocks {
		if len(b.Types) == 0 {
			return nil
		}
		for _, t := range b.Types {
			if !slices.Contains(set, t) {
				set = append(set, t)
			}
		}
	}
	return set
}
