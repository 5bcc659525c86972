package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"kadop/internal/blockcache"
	"kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/trace"
)

// tracedPlan is the serial operation sequence of one traced phase: one
// client, one operation in flight, counts fixed by --seconds alone.
type tracedPlan struct {
	rounds          int // publish calls
	queriesPerRound int // queries after each publish call
	tailQueries     int // queries on the quiescent deployment afterwards
}

func planFor(s *spec, seconds float64) tracedPlan {
	atLeast1 := func(x float64) int { return int(math.Max(1, math.Round(x))) }
	var p tracedPlan
	switch {
	case s.publishers > 0 && s.windowClients > 0:
		p.rounds = atLeast1(s.tracedPublishRate * seconds)
		p.queriesPerRound = int(s.tracedQueryRate)
		p.tailQueries = s.verifyQueries / 4
	case s.publishers > 0:
		p.rounds = atLeast1(s.tracedPublishRate * seconds)
		p.tailQueries = s.verifyQueries / 4
	default:
		p.tailQueries = atLeast1(s.tracedQueryRate * seconds)
	}
	return p
}

// layerAcc accumulates what the program itself exports per query:
// Result.Cost, Result.Plans, phase times and the spans of Result.Trace.
type layerAcc struct {
	queries                      int
	rootFetches, blocksFetched   int64
	planBlocks, planFetched      int64
	scanned, candidates, pruned  int64
	docsEvaluated, answers       int64
	indexMS, firstMS, secondMS   []float64
	fetchMS, filterMS, answersMS []float64
}

func (a *layerAcc) add(res *kadop.Result) {
	a.queries++
	c := res.Cost
	a.rootFetches += c.RootFetches
	a.blocksFetched += c.BlocksFetched
	a.scanned += c.PostingsScanned
	a.candidates += c.Candidates
	a.pruned += c.Pruned
	a.docsEvaluated += c.DocsEvaluated
	a.answers += c.Answers
	for _, p := range res.Plans {
		if p != nil && !p.Inline {
			a.planBlocks += int64(p.Blocks)
			a.planFetched += int64(p.Fetched)
		}
	}
	a.indexMS = append(a.indexMS, ms(res.IndexTime))
	if res.FirstAnswer > 0 { // 0 when the query has no answer
		a.firstMS = append(a.firstMS, ms(res.FirstAnswer))
	}
	if res.Total > res.IndexTime {
		a.secondMS = append(a.secondMS, ms(res.Total-res.IndexTime))
	}
	if res.Trace == nil {
		return
	}
	byName := map[string]time.Duration{}
	for _, sp := range res.Trace.Export().Spans {
		byName[sp.Name] += sp.Duration
	}
	for name, dst := range map[string]*[]float64{
		"phase:fetch": &a.fetchMS, "phase:filter-exchange": &a.filterMS, "phase:answers": &a.answersMS,
	} {
		if d, ok := byName[name]; ok {
			*dst = append(*dst, ms(d))
		}
	}
}

// serial runs one plan on client 0 and returns its operations; collect,
// when set, sees every successful query's result.
func (e *env) serial(p tracedPlan, opts kadop.QueryOptions, collect func(*kadop.Result)) phaseStats {
	var ps phaseStats
	before := e.cl.net.Collector.ClassBytes()
	start := time.Now()
	query := func() {
		rec, res := e.runQuery(0, 1, opts)
		if res != nil && collect != nil {
			collect(res)
		}
		ps.ops = append(ps.ops, rec)
	}
	for r := 0; r < p.rounds; r++ {
		rec, ok := e.publishNext(e.publisher(0))
		if !ok {
			rec.err = fmt.Errorf("traced pass ran out of corpus at publish call %d", r)
		}
		ps.ops = append(ps.ops, rec)
		for q := 0; q < p.queriesPerRound; q++ {
			query()
		}
	}
	for q := 0; q < p.tailQueries; q++ {
		query()
	}
	ps.elapsed = time.Since(start)
	ps.bytes = e.bytesSince(before)
	return ps
}

func (e *env) setTracer(tr *trace.Tracer) {
	for _, p := range e.cl.peers {
		p.Node().SetTracer(tr)
	}
}

func (e *env) cacheStats() blockcache.Stats {
	var sum blockcache.Stats
	for _, p := range e.cl.peers {
		st := p.BlockCache().Stats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
		sum.BytesSaved += st.BytesSaved
	}
	return sum
}

// procWriteBytes reads write_bytes from /proc/self/io: bytes this
// process caused to be sent to the storage layer. 0 where unavailable.
func procWriteBytes() int64 {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// runTraced is the separate traced pass: the workload's operations run
// one at a time, first bare (wrappers idle, no tracer: the overhead
// baseline), then with the program's tracer installed and the
// benchmark's own spans recording. Per-layer metrics come from the
// second phase, from direct layer probes, and from the closed files.
func runTraced(s *spec, seed int64, seconds float64, work, outDir string) (*outcome, error) {
	rec := newRecorder()
	traced := *s
	traced.setups = 1
	e := &env{spec: &traced, seed: seed, seconds: seconds, work: work, rec: rec}
	defer e.tearDown()
	if err := e.setUp(); err != nil {
		return nil, err
	}
	plan := planFor(s, seconds)

	// Phase A: bare baseline.
	bare := e.serial(plan, s.opts, nil)

	// Phase B: traced. Queries replay phase A's positions in the mix.
	e.qcursor[0] = 0
	acc := &layerAcc{}
	tr := trace.New(16)
	e.setTracer(tr)
	col := e.cl.net.Collector
	retriesBefore := col.Events(metrics.EventRetry)
	cacheBefore := e.cacheStats()
	writeBefore := procWriteBytes()
	docsBefore := int(e.confirmed.Load())
	rec.on.Store(true)
	tracedPhase := e.serial(plan, s.opts, acc.add)
	rec.on.Store(false)
	e.setTracer(nil)
	writeBytes := procWriteBytes() - writeBefore
	cacheAfter := e.cacheStats()
	retries := col.Events(metrics.EventRetry) - retriesBefore
	tracedXML := e.co.xmlBytes(docsBefore, int(e.confirmed.Load()))
	spans := rec.snapshot()

	// Phase C (automatic plan only): the same queries under the fixed
	// conventional plan, bare: the baseline a cost-based planner must beat.
	phases := []phaseStats{bare, tracedPhase}
	var conv phaseStats
	if s.opts.Strategy == kadop.AutoStrategy {
		e.qcursor[0] = 0
		opts := s.opts
		opts.Strategy = kadop.Conventional
		conv = e.serial(tracedPlan{tailQueries: plan.tailQueries}, opts, nil)
		phases = append(phases, conv)
	}

	m := map[string]float64{}
	published := int(e.confirmed.Load())
	lists := e.probeDocuments(m, published)
	e.probeLive(m, lists)
	probeLists(m, lists)
	probeJoin(m, e.queries, lists)

	// Clean close, then what is left on disk.
	totalXML := e.co.xmlBytes(0, published)
	if err := e.cl.close(); err != nil {
		return nil, fmt.Errorf("clean close: %w", err)
	}
	m["store.index_bytes_per_doc_byte"], m["store.reopen_ms"] = 0, 0
	if e.cl.dir != "" {
		n, err := dirBytes(e.cl.dir)
		if err != nil {
			return nil, err
		}
		m["store.index_bytes_per_doc_byte"] = ratio(float64(n), float64(totalXML))
		if m["store.reopen_ms"], err = e.cl.reopenMillis(); err != nil {
			return nil, err
		}
	}

	o, err := e.newOracleFor(phases...)
	if err != nil {
		return nil, err
	}
	m["pattern.parse_us_per_query"] = ratio(float64(e.parseQueries.Microseconds()), float64(len(e.queries)))
	m["pattern.match_us_per_doc"] = ratio(float64(o.matchTime.Microseconds()), float64(o.matchCalls))
	out := &outcome{metrics: m}
	out.attempted, out.failed, _ = e.verify(o, phases...)

	spanMetrics(m, spans, tracedPhase, acc.queries)
	m["store.bytes_written_per_doc_byte"] = ratio(float64(writeBytes), float64(tracedXML))
	m["dht.retries"] = float64(retries)
	m["dht.bytes_routing"] = float64(tracedPhase.bytes[metrics.Routing])
	m["dht.bytes_index"] = float64(tracedPhase.bytes[metrics.Index])
	m["dht.bytes_postings"] = float64(tracedPhase.bytes[metrics.Postings])
	m["dht.bytes_filters"] = float64(classBytes(tracedPhase.bytes, metrics.Filters, metrics.FiltersAB, metrics.FiltersDB))
	m["dht.bytes_control"] = float64(tracedPhase.bytes[metrics.Control])

	nq := float64(acc.queries)
	m["dpp.root_fetches_per_query"] = ratio(float64(acc.rootFetches), nq)
	m["dpp.blocks_fetched_per_query"] = ratio(float64(acc.blocksFetched), nq)
	m["dpp.blocks_kept_ratio"] = ratio(float64(acc.planFetched), float64(acc.planBlocks))
	hits, misses := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
	m["blockcache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["blockcache.evictions"] = float64(cacheAfter.Evictions - cacheBefore.Evictions)
	m["blockcache.bytes_saved_per_query"] = ratio(float64(cacheAfter.BytesSaved-cacheBefore.BytesSaved), nq)
	m["twigjoin.postings_scanned_per_query"] = ratio(float64(acc.scanned), nq)
	m["twigjoin.pruned_ratio"] = ratio(float64(acc.pruned), float64(acc.candidates))
	m["kadop.index_ms_p50"] = median(acc.indexMS)
	m["kadop.first_answer_ms_p50"] = median(acc.firstMS)
	m["kadop.second_phase_ms_p50"] = median(acc.secondMS)
	m["kadop.docs_evaluated_per_query"] = ratio(float64(acc.docsEvaluated), nq)
	m["kadop.answers_per_query"] = ratio(float64(acc.answers), nq)
	m["kadop.query_p99_ms"] = percentile(bare.durationsMS(true), 99)
	m["kadop.publish_call_ms_p50"] = median(tracedPhase.durationsMS(false))
	m["kadop.conventional_p50_ms"] = median(conv.durationsMS(true))
	m["kadop.conventional_wire_bytes_per_query"] = ratio(float64(classBytes(conv.bytes, queryClasses...)), float64(len(conv.ops)))
	m["trace.phase_fetch_ms_p50"] = median(acc.fetchMS)
	m["trace.phase_filter_exchange_ms_p50"] = median(acc.filterMS)
	m["trace.phase_answers_ms_p50"] = median(acc.answersMS)
	// Overhead on the workload's primary operation: publish calls for a
	// publish-only workload, queries otherwise.
	primary := s.windowClients > 0
	m["trace.overhead_ratio"] = ratio(median(tracedPhase.durationsMS(primary)), median(bare.durationsMS(primary)))

	if outDir == "" {
		// The spans are the traced pass's output, so the default
		// directory is kept when the run's scratch directory goes.
		if outDir, err = os.MkdirTemp("", "kadop-bench-out-"); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(outDir, "spans-"+s.name+".jsonl")
	if err := writeJSONL(spanFile, spans); err != nil {
		return nil, err
	}
	out.note = fmt.Sprintf("%d traced ops (%d queries), %d spans in %s", len(tracedPhase.ops), acc.queries, len(spans), spanFile)
	return out, nil
}

// spanMetrics derives the store, dht and kadop self-time metrics from
// the benchmark's own spans of the traced phase.
func spanMetrics(m map[string]float64, spans []span, ps phaseStats, queries int) {
	var (
		appendCalls, snapshots, postingsRead int
		nodeBatches, nodeBatchOps            int
		commitBatches, commitBatchOps        int
		nodeWrite, commitWrite               time.Duration
		readBusy, rpcBusy                    time.Duration
		rpcs, streams                        int
		sawCommitLevel                       bool
	)
	for _, s := range spans {
		switch s.Name {
		case "store:append":
			appendCalls++
			nodeWrite += s.dur()
		case "store:batch":
			appendCalls++
			nodeBatches++
			nodeBatchOps += s.N
			nodeWrite += s.dur()
		case "store:commit":
			sawCommitLevel = true
			commitWrite += s.dur()
		case "store:batch-commit":
			sawCommitLevel = true
			commitBatches++
			commitBatchOps += s.N
			commitWrite += s.dur()
		case "store:snapshot":
			snapshots++
		case "store:read":
			readBusy += s.dur()
			postingsRead += s.N
		case "dht:call":
			rpcs++
			rpcBusy += s.dur()
		case "dht:stream":
			rpcs++
			streams++
			rpcBusy += s.dur()
		}
	}
	// Without a coalescer the node-facing wrapper is the lowest level:
	// its write time is the store's busy time and nothing waits. With
	// one, the wrapper under it sees the group commits.
	busy, wait := nodeWrite, time.Duration(0)
	batchCalls, batchOps := nodeBatches, nodeBatchOps
	if sawCommitLevel {
		busy, wait = commitWrite, nodeWrite-commitWrite
		if wait < 0 {
			wait = 0
		}
		batchCalls, batchOps = commitBatches, commitBatchOps
	}
	m["store.append_calls"] = float64(appendCalls)
	m["store.append_busy_ms"] = ms(busy)
	m["store.append_wait_ms"] = ms(wait)
	m["store.batch_calls"] = float64(batchCalls)
	m["store.batch_ops_per_commit"] = ratio(float64(batchOps), float64(batchCalls))
	m["store.snapshot_calls"] = float64(snapshots)
	m["store.read_busy_ms"] = ms(readBusy)
	m["store.postings_read_per_query"] = ratio(float64(postingsRead), float64(queries))
	m["dht.rpc_calls_per_op"] = ratio(float64(rpcs), float64(len(ps.ops)))
	m["dht.rpc_busy_ms"] = ms(rpcBusy)
	m["dht.stream_opens_per_query"] = ratio(float64(streams), float64(queries))

	self := opSelfTimes(spans)
	var selfTotal time.Duration
	selfQueries := 0
	for _, op := range ps.ops {
		if op.query >= 0 && op.err == nil {
			selfTotal += self[op.spanID]
			selfQueries++
		}
	}
	m["kadop.self_ms_per_query"] = ratio(ms(selfTotal), float64(selfQueries))
}
