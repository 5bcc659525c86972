package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/pattern"
	"kadop/internal/sid"
	"kadop/internal/workload"
	"kadop/internal/xmltree"
)

// env is one prepared workload run: corpus, query sequence, deployment
// and the cursors that carry publish and query progress across phases.
type env struct {
	spec    *spec
	seed    int64
	seconds float64
	work    string    // scratch directory of this run
	rec     *recorder // traced pass only

	co      *corpus
	cl      *cluster
	queries []*pattern.Query // distinct queries of the mix
	seq     []int            // the mix as indexes into queries, cycled
	clients []int            // peers that submit queries, see pickClients

	// Publishers claim the next publishBatch documents from nextBatch,
	// so the published set is a prefix of the corpus once they stop.
	// submitted/confirmed are that prefix in documents: submitted before
	// a call begins, confirmed after it returned.
	nextBatch            atomic.Int64
	submitted, confirmed atomic.Int64
	docLimit             int   // publishers stop before this corpus index
	qcursor              []int // next position in seq, per client

	setupSeconds []float64
	preloadRates []float64 // documents per second, per set-up
	parseQueries time.Duration
}

// opRecord is one driver-level operation.
type opRecord struct {
	query    int // index into env.queries; -1 for a publish call
	docs     int // documents of a publish call
	dur      time.Duration
	first    time.Duration // Result.FirstAnswer
	index    time.Duration // Result.IndexTime
	answers  int
	got      []sid.DocKey // distinct documents answered
	must     int          // documents [0, must) were published before the op
	may      int          // documents [0, may) were submitted by its end
	err      error
	spanID   uint64 // driver span (traced pass)
	fetchMS  float64
	filterMS float64
	answerMS float64
}

// corpusDocs is how many documents the run generates: the preload plus
// what the publishing window may consume (warm-up included).
func (e *env) corpusDocs() int {
	n := e.spec.preload
	if e.spec.publishers > 0 {
		n += e.spec.primeDocs + int(float64(corpusDocsPerSecond*e.spec.publishers)*e.seconds*(1+warmupShare)) + publishBatch
	}
	return n
}

// setUp builds the run's inputs and deployment spec.setups times and
// keeps the last. One set-up is: generate and serialise the corpus,
// parse the query mix, build and bootstrap the cluster, preload.
func (e *env) setUp() error {
	for i := 0; i < e.spec.setups; i++ {
		if e.cl != nil {
			if err := e.tearDown(); err != nil {
				return err
			}
		}
		dir := filepath.Join(e.work, fmt.Sprintf("setup%d", i))
		start := time.Now()
		e.co = makeCorpus(e.seed, e.corpusDocs()*recordsPerDoc)
		if err := e.parseMix(); err != nil {
			return err
		}
		cl, err := newCluster(e.spec, dir, e.rec)
		if err != nil {
			return err
		}
		e.cl = cl
		if err := e.pickClients(); err != nil {
			return err
		}
		preloadStart := time.Now()
		if err := cl.preload(e.co, e.spec.preload, publisherPeers); err != nil {
			return err
		}
		if e.spec.preload > 0 {
			e.preloadRates = append(e.preloadRates, float64(e.spec.preload)/time.Since(preloadStart).Seconds())
		}
		cl.net.SetModel(e.spec.link)
		e.setupSeconds = append(e.setupSeconds, time.Since(start).Seconds())
	}
	e.nextBatch.Store(0)
	e.docLimit = len(e.co.docs)
	e.submitted.Store(int64(e.spec.preload))
	e.confirmed.Store(int64(e.spec.preload))
	e.qcursor = make([]int, clusterPeers)
	for c := range e.qcursor {
		e.qcursor[c] = c
	}
	return nil
}

// tearDown closes the deployment cleanly and removes its files.
func (e *env) tearDown() error {
	if e.cl == nil {
		return nil
	}
	err := e.cl.close()
	if e.cl.dir != "" {
		if rerr := os.RemoveAll(e.cl.dir); err == nil {
			err = rerr
		}
	}
	e.cl = nil
	return err
}

// templateOf blanks a query's quoted literal, so queries that differ
// only in the word they search for share a template.
func templateOf(q string) string {
	i := strings.IndexByte(q, '"')
	j := strings.LastIndexByte(q, '"')
	if i < 0 || j <= i {
		return q
	}
	return q[:i+1] + q[j:]
}

// balancedMix thins workload.QueryMix(seed, queryMixDraw) to a sequence
// of queryMixSize queries in which every template occurs equally often
// in every stretch: each block holds the next unused query of each
// template once, in a seeded order. The words searched for still vary
// with the seed; only the templates' shares do not, so a metric does not
// move with how many expensive templates a seed happened to draw.
func balancedMix(seed int64) []string {
	var templates []string
	byTemplate := map[string][]string{}
	for _, q := range workload.QueryMix(seed, queryMixDraw) {
		t := templateOf(q)
		if _, ok := byTemplate[t]; !ok {
			templates = append(templates, t)
		}
		byTemplate[t] = append(byTemplate[t], q)
	}
	rng := rand.New(rand.NewSource(seed))
	var seq []string
	for b := 0; len(seq)+len(templates) <= queryMixSize; b++ {
		for _, ti := range rng.Perm(len(templates)) {
			if qs := byTemplate[templates[ti]]; b < len(qs) {
				seq = append(seq, qs[b])
			}
		}
	}
	return seq
}

// parseMix parses the balanced query mix into distinct queries and the
// sequence over them.
func (e *env) parseMix() error {
	start := time.Now()
	e.queries, e.seq = nil, nil
	byString := map[string]int{}
	for _, s := range balancedMix(e.seed) {
		qi, ok := byString[s]
		if !ok {
			q, err := pattern.Parse(s)
			if err != nil {
				return fmt.Errorf("query mix: %q: %w", s, err)
			}
			qi = len(e.queries)
			byString[s] = qi
			e.queries = append(e.queries, q)
		}
		e.seq = append(e.seq, qi)
	}
	e.parseQueries = time.Since(start)
	return nil
}

// Peers 0 and 1 publish. Queries are submitted by peers that are home
// to none of the mix's element labels, so the long posting lists always
// cross the network: a submitter that owned one would read it locally
// for free, which is not the regime the paper measures. Peer
// identifiers derive from the simulated addresses, so the choice is the
// same for every seed.
var publisherPeers = []int{0, 1}

func (e *env) pickClients() error {
	e.clients = nil
	for i := len(publisherPeers); i < clusterPeers; i++ {
		self := e.cl.peers[i].Node().Self().ID
		owns := false
		for _, q := range e.queries {
			for _, t := range q.Terms() {
				if t.Kind != xmltree.Label {
					continue
				}
				owner, err := e.cl.peers[i].Node().Locate(t.Key())
				if err != nil {
					return err
				}
				owns = owns || owner.ID == self
			}
		}
		if !owns {
			e.clients = append(e.clients, i)
		}
	}
	if len(e.clients) < 2 {
		return fmt.Errorf("only %d peers own no label of the mix, need 2 query clients", len(e.clients))
	}
	return nil
}

func (e *env) publisher(w int) *kadop.Peer { return e.cl.peers[publisherPeers[w]] }
func (e *env) client(c int) *kadop.Peer    { return e.cl.peers[e.clients[c]] }

// publishNext claims and publishes the next batch; ok is false when the
// corpus is used up.
func (e *env) publishNext(p *kadop.Peer) (rec opRecord, ok bool) {
	var lo, hi int
	for {
		b := e.nextBatch.Load()
		lo = e.spec.preload + int(b)*publishBatch
		hi = lo + publishBatch
		if hi > e.docLimit {
			return rec, false
		}
		if e.nextBatch.CompareAndSwap(b, b+1) {
			break
		}
	}
	// Batches start in claim order only with one publisher; with more,
	// submitted/confirmed are read only after the publishers stopped.
	storeMax(&e.submitted, int64(hi))
	sp := e.rec.begin(layerKadop, "op:publish", p.Node().Self().Addr, "")
	start := time.Now()
	err := e.cl.publishCall(p, e.co, lo, hi)
	rec = opRecord{query: -1, docs: hi - lo, dur: time.Since(start), err: err}
	if sp != nil {
		rec.spanID = sp.s.ID
		sp.end(hi - lo)
	}
	if err == nil {
		storeMax(&e.confirmed, int64(hi))
	}
	return rec, true
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// runQuery runs the client's next query of the mix. It returns the
// result as well, for the traced pass's counters.
func (e *env) runQuery(c, stride int, opts kadop.QueryOptions) (opRecord, *kadop.Result) {
	p := e.client(c)
	qi := e.seq[e.qcursor[c]%len(e.seq)]
	e.qcursor[c] += stride
	rec := opRecord{query: qi, must: int(e.confirmed.Load())}
	sp := e.rec.begin(layerKadop, "op:query", p.Node().Self().Addr, "")
	start := time.Now()
	res, err := p.Query(e.queries[qi], opts)
	rec.dur = time.Since(start)
	if sp != nil {
		rec.spanID = sp.s.ID
		sp.end(0)
	}
	rec.may = int(e.submitted.Load())
	if err == nil && res.Incomplete {
		err = errors.New("incomplete result")
	}
	if err != nil {
		rec.err = err
		return rec, nil
	}
	rec.first, rec.index = res.FirstAnswer, res.IndexTime
	if opts.IndexOnly {
		rec.got = res.Docs
		return rec, res
	}
	rec.answers = len(res.Matches)
	rec.got = make([]sid.DocKey, 0, len(res.Docs))
	for i, m := range res.Matches {
		if i == 0 || m.Doc != res.Matches[i-1].Doc {
			rec.got = append(rec.got, m.Doc)
		}
	}
	return rec, res
}

// phaseStats is what one phase of a run measured from outside.
type phaseStats struct {
	// live: queries ran beside a publisher, so an answer may lawfully
	// trail what was published (see transientTolerance).
	live    bool
	elapsed time.Duration
	mallocs uint64
	bytes   map[metrics.Class]int64 // traffic moved, by class
	ops     []opRecord
}

func (ps phaseStats) queries() []opRecord {
	var out []opRecord
	for _, op := range ps.ops {
		if op.query >= 0 {
			out = append(out, op)
		}
	}
	return out
}

// durationsMS are the durations of the phase's successful queries, or
// of its successful publish calls.
func (ps phaseStats) durationsMS(queries bool) []float64 {
	var out []float64
	for _, op := range ps.ops {
		if op.err == nil && (op.query >= 0) == queries {
			out = append(out, ms(op.dur))
		}
	}
	return out
}

func (ps phaseStats) publishedDocs() int {
	n := 0
	for _, op := range ps.ops {
		if op.query < 0 && op.err == nil {
			n += op.docs
		}
	}
	return n
}

// phase runs publishers and clients closed-loop, each goroutine issuing
// its next operation when the previous one returned. It ends after
// limit, or, when queryBudget is positive, once the clients ran that
// many queries between them; a publisher running out of corpus ends it
// early.
func (e *env) phase(limit time.Duration, publishers, clients, queryBudget int) phaseStats {
	var stop atomic.Bool
	perG := make([][]opRecord, publishers+clients)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bytesBefore := e.cl.net.Collector.ClassBytes()
	start := time.Now()
	deadline := start.Add(limit)
	expired := func() bool { return stop.Load() || (queryBudget <= 0 && !time.Now().Before(deadline)) }
	var wg sync.WaitGroup
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !expired() {
				rec, ok := e.publishNext(e.publisher(w))
				if !ok {
					stop.Store(true)
					return
				}
				perG[w] = append(perG[w], rec)
			}
		}(w)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			budget := (queryBudget + clients - 1 - c) / clients
			for n := 0; !expired() && (queryBudget <= 0 || n < budget); n++ {
				rec, _ := e.runQuery(c, clients, e.spec.opts)
				perG[publishers+c] = append(perG[publishers+c], rec)
			}
		}(c)
	}
	wg.Wait()
	ps := phaseStats{elapsed: time.Since(start), live: publishers > 0 && clients > 0}
	runtime.ReadMemStats(&after)
	ps.mallocs = after.Mallocs - before.Mallocs
	ps.bytes = e.bytesSince(bytesBefore)
	for _, ops := range perG {
		ps.ops = append(ps.ops, ops...)
	}
	return ps
}

// bytesSince is the traffic the network moved, by class, since before
// was read from its collector.
func (e *env) bytesSince(before map[metrics.Class]int64) map[metrics.Class]int64 {
	now := e.cl.net.Collector.ClassBytes()
	for cl, n := range before {
		now[cl] -= n
	}
	return now
}

// transientTolerance is the share of a live phase's queries that may
// miss a document published before they began without the run failing.
// The program does not make a DPP block split (or the inline-to-DPP
// overflow) atomic to a concurrent reader: the old block is deleted
// before the root names its replacements, so a query that read the root
// just before a split sees that block empty. On this sandbox 0.5–2.7 %
// of mixed_rw's queries hit that window. They are reported, and they
// fail the run only above this share; a stale cache or a lost append
// would miss on every query, and the strict check on the quiescent
// deployment after the window catches anything that stays missing.
const transientTolerance = 0.10

// verify checks every operation of the phases against the oracle.
// Failures are described on stderr, the first few in full.
func (e *env) verify(o *oracle, phases ...phaseStats) (attempted, failed, transient int) {
	full := !e.spec.opts.IndexOnly
	report := func(err error) {
		failed++
		if failed <= 5 {
			fmt.Fprintf(os.Stderr, "bench: %s: FAILED op: %v\n", e.spec.name, err)
		}
	}
	for _, ps := range phases {
		missed, queries := 0, 0
		for _, op := range ps.ops {
			attempted++
			if op.err != nil {
				report(op.err)
				continue
			}
			if op.query < 0 {
				continue
			}
			queries++
			err := e.checkAnswer(o, op, full)
			if ps.live && errors.Is(err, errMissing) {
				missed++
				fmt.Fprintf(os.Stderr, "bench: %s: transient miss beside a live publisher: %v\n", e.spec.name, err)
			} else if err != nil {
				report(err)
			}
		}
		transient += missed
		if float64(missed) > transientTolerance*float64(queries) && missed > 2 {
			report(fmt.Errorf("%d of %d live queries missed published documents, above the %.0f%% tolerance", missed, queries, transientTolerance*100))
			failed += missed - 1
		}
	}
	return attempted, failed, transient
}

// checkAnswer maps one query's answer to corpus documents and compares
// it with the oracle.
func (e *env) checkAnswer(o *oracle, op opRecord, full bool) error {
	docs := make([]int, 0, len(op.got))
	for _, k := range op.got {
		d, ok := e.cl.keys[k]
		if !ok {
			return fmt.Errorf("query %s: answer names unknown document %v", e.queries[op.query], k)
		}
		docs = append(docs, d)
	}
	sort.Ints(docs)
	return o.check(answerCheck{
		query: e.queries[op.query], full: full, docs: dedupInts(docs), answers: op.answers,
		must: func(d int) bool { return d < op.must },
		may:  func(d int) bool { return d < op.may },
	})
}

func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// newOracleFor parses the documents the run submitted and evaluates the
// queries the phases ran over them.
func (e *env) newOracleFor(phases ...phaseStats) (*oracle, error) {
	n := int(e.submitted.Load())
	raw := make([][]byte, n)
	for i := range raw {
		raw[i] = e.co.docs[i].XML
	}
	o, err := newOracle(raw)
	if err != nil {
		return nil, err
	}
	ran := make([]bool, len(e.queries))
	for _, ps := range phases {
		for _, op := range ps.ops {
			if op.query >= 0 {
				ran[op.query] = true
			}
		}
	}
	var queries []*pattern.Query
	for qi, q := range e.queries {
		if ran[qi] {
			queries = append(queries, q)
		}
	}
	o.compute(queries, runtime.GOMAXPROCS(0))
	return o, nil
}

// runEndToEnd is the untraced run: warm-up, measured window, and for a
// publish-only window the verification queries. No tracer is installed
// and no wrapper exists.
func runEndToEnd(s *spec, seed int64, seconds float64, work string) (*outcome, error) {
	e := &env{spec: s, seed: seed, seconds: seconds, work: work}
	defer e.tearDown()
	if err := e.setUp(); err != nil {
		return nil, err
	}
	window := time.Duration(seconds * float64(time.Second))
	var phases []phaseStats
	var qs phaseStats
	if s.primeDocs > 0 {
		// Warm-up by document count, then the query metrics on that state.
		e.docLimit = s.preload + s.primeDocs
		phases = append(phases, e.phase(time.Hour, s.publishers, 0, 0))
		e.docLimit = len(e.co.docs)
		qs = e.phase(0, 0, s.verifyClients, s.primeQueries)
		phases = append(phases, qs)
	} else {
		e.phase(time.Duration(float64(window)*warmupShare), s.publishers, s.windowClients, 0)
	}
	win := e.phase(window, s.publishers, s.windowClients, 0)
	phases = append(phases, win)
	if s.windowClients > 0 {
		qs = win
	}
	if s.verifyQueries > 0 {
		phases = append(phases, e.phase(0, 0, s.verifyClients, s.verifyQueries))
	}
	o, err := e.newOracleFor(phases...)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	var transient int
	out.attempted, out.failed, transient = e.verify(o, phases...)

	queries := qs.queries()
	durs := qs.durationsMS(true)
	m := out.metrics
	m["setup_s"] = median(e.setupSeconds)
	if s.publishers > 0 {
		m["publish_docs_per_s"] = ratio(float64(win.publishedDocs()), win.elapsed.Seconds())
	} else {
		m["publish_docs_per_s"] = median(e.preloadRates)
	}
	m["query_p50_ms"] = median(durs)
	m["query_p90_ms"] = percentile(durs, 90)
	m["queries_per_s"] = ratio(float64(len(queries)), qs.elapsed.Seconds())
	m["wire_bytes_per_query"] = ratio(float64(classBytes(qs.bytes, queryClasses...)), float64(len(queries)))
	m["allocs_per_op"] = ratio(float64(win.mallocs), float64(len(win.ops)))
	out.note = fmt.Sprintf("%d window ops (%d documents published) in %.2fs, %d query samples (tail supported: p%g), %d transient misses, set-ups %.2f s, preloads %.0f docs/s",
		len(win.ops), win.publishedDocs(), win.elapsed.Seconds(), len(durs), highestPercentile(len(durs)), transient, e.setupSeconds, e.preloadRates)
	return out, nil
}

// outcome is one run's result before it is rendered.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	note              string
}
