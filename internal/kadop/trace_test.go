package kadop

import (
	"strings"
	"testing"
	"time"

	"kadop/internal/dpp"
	"kadop/internal/metrics"
	"kadop/internal/pattern"
	"kadop/internal/trace"
)

func dppOptions(blockSize int) dpp.Options { return dpp.Options{BlockSize: blockSize} }

// TestQueryTrace runs a full query with a tracer installed on the
// querying node and checks that the result carries a trace whose phase
// spans cover the pipeline, and that the phase histograms the admin
// endpoint exports are populated. The query has a wildcard, so both
// phases run; the same query without it is answered by the index join,
// and its trace has a confirmation and no answer phase.
func TestQueryTrace(t *testing.T) {
	c := newCluster(t, 6, Config{})
	truth := publishAll(t, c, dblpDocs)
	answerCalls := countAnswerCalls(c)

	querier := c.peers[2]
	tr := trace.New(16)
	querier.Node().SetTracer(tr)

	exact := pattern.MustParse(`//article//author[. contains "Ullman"]`)
	res, err := querier.Query(exact, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkIndexAnswered(t, res, truth(exact), answerCalls.Load())
	if tree := res.Trace.Tree(); !strings.Contains(tree, "phase:twigjoin") || !strings.Contains(tree, "phase:confirm") || strings.Contains(tree, "phase:answers") {
		t.Errorf("index-answered trace should join, confirm and skip the answer phase:\n%s", tree)
	}

	q := pattern.MustParse(`//*//author[. contains "Ullman"]`)
	res, err = querier.Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("query returned no matches")
	}
	if res.Trace == nil {
		t.Fatal("result carries no trace despite tracer being installed")
	}

	tree := res.Trace.Tree()
	for _, phase := range []string{"query", "phase:fetch", "phase:transfer", "phase:twigjoin", "phase:answers"} {
		if !strings.Contains(tree, phase) {
			t.Errorf("trace tree missing %q:\n%s", phase, tree)
		}
	}

	// Phase latencies must roughly account for the reported total: each
	// finished span's duration is bounded by the root query span.
	rec := res.Trace.Export()
	var rootDur time.Duration
	for _, s := range rec.Spans {
		if s.Name == "query" && s.Parent == 0 {
			rootDur = s.Duration
		}
	}
	if rootDur <= 0 {
		t.Fatalf("root query span not finished:\n%s", tree)
	}
	for _, s := range rec.Spans {
		if s.Duration > rootDur+time.Millisecond {
			t.Errorf("span %q (%v) exceeds the query total (%v)", s.Name, s.Duration, rootDur)
		}
	}

	// The byte attributes on the root come from collector class deltas.
	var sawBytes bool
	for _, s := range rec.Spans {
		if s.Name != "query" {
			continue
		}
		for _, a := range s.Attrs {
			if strings.HasPrefix(a.Key, "bytes.") {
				sawBytes = true
			}
		}
	}
	if !sawBytes {
		t.Errorf("root span carries no bytes.* attributes:\n%s", tree)
	}

	col := c.net.Collector
	for _, op := range []string{metrics.OpQueryTotal, metrics.OpQueryIndex, metrics.OpLookup, metrics.OpPostingsTransfer, metrics.OpTwigJoin} {
		if col.Hist(op).Count() == 0 {
			t.Errorf("histogram %q not populated", op)
		}
	}
	if col.Quantile(metrics.OpQueryTotal, 0.5) <= 0 {
		t.Error("query-total p50 is zero")
	}
}

// TestQueryUntracedHasNoTrace pins the off-by-default behaviour: with
// no tracer installed the result has no trace and per-posting timing
// stays out of the hot path.
func TestQueryUntracedHasNoTrace(t *testing.T) {
	c := newCluster(t, 4, Config{})
	publishAll(t, c, dblpDocs)

	res, err := c.peers[0].Query(pattern.MustParse(`//article//author`), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("untraced query still produced a trace")
	}
	// Cheap once-per-query observations are recorded regardless.
	if c.net.Collector.Hist(metrics.OpQueryTotal).Count() == 0 {
		t.Error("query-total histogram not populated on untraced query")
	}
}

// BenchmarkQueryTracingOff/On measure the end-to-end query cost with
// tracing disabled (the default) and enabled; the Off number is the
// hot path the <5% overhead budget protects.
func BenchmarkQueryTracingOff(b *testing.B) { benchQueryTracing(b, false) }
func BenchmarkQueryTracingOn(b *testing.B)  { benchQueryTracing(b, true) }

func benchQueryTracing(b *testing.B, traced bool) {
	c := newCluster(b, 6, Config{})
	publishAll(b, c, dblpDocs)
	querier := c.peers[2]
	if traced {
		querier.Node().SetTracer(trace.New(4))
	}
	q := pattern.MustParse(`//article//author[. contains "Ullman"]`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := querier.Query(q, QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestQueryTraceParallel covers the parallel join path: per-vector
// spans must appear under the query.
func TestQueryTraceParallel(t *testing.T) {
	c := newCluster(t, 6, Config{UseDPP: true, DPP: dppOptions(4)})
	publishAll(t, c, dblpDocs)

	querier := c.peers[1]
	querier.Node().SetTracer(trace.New(16))
	res, err := querier.Query(pattern.MustParse(`//article[//title]//author`), QueryOptions{ParallelJoin: 2, IndexOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace on parallel query")
	}
	tree := res.Trace.Tree()
	if !strings.Contains(tree, "vector") {
		t.Errorf("parallel query trace missing vector spans:\n%s", tree)
	}
}

// TestQueryTraceReducerOverDPP checks that a reduce step runs under the
// query's context: with one tracer shared by the cluster, the home
// peers' block pull-backs (dpp:fetch) and reduced-list pushes (the
// stream:push RPC) must appear in the span tree under
// phase:filter-exchange, next to the filter RPCs that carried them.
func TestQueryTraceReducerOverDPP(t *testing.T) {
	c := newCluster(t, 6, Config{UseDPP: true, DPP: dppOptions(4)})
	publishAll(t, c, dblpDocs)
	tr := trace.New(16)
	for _, p := range c.peers {
		p.Node().SetTracer(tr)
	}
	res, err := c.peers[1].Query(pattern.MustParse(`//article//author[. contains "Ullman"]`),
		QueryOptions{Strategy: DBReducer, IndexOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace on the reducer query")
	}
	rec := res.Trace.Export()
	parent := map[uint64]uint64{}
	var exchange uint64
	for _, s := range rec.Spans {
		parent[s.ID] = s.Parent
		if s.Name == "phase:filter-exchange" {
			exchange = s.ID
		}
	}
	if exchange == 0 {
		t.Fatalf("no phase:filter-exchange span:\n%s", res.Trace.Tree())
	}
	under := func(id uint64) bool {
		for id != 0 {
			if id == exchange {
				return true
			}
			id = parent[id]
		}
		return false
	}
	var sawFetch, sawPush bool
	for _, s := range rec.Spans {
		if !under(s.ID) {
			continue
		}
		switch s.Name {
		case "dpp:fetch":
			sawFetch = true
		case "rpc:app":
			for _, a := range s.Attrs {
				if a.Key == "proc" && a.Value == procPush {
					sawPush = true
				}
			}
		}
	}
	if !sawFetch || !sawPush {
		t.Errorf("under phase:filter-exchange: dpp:fetch=%v, rpc:app proc=%s=%v:\n%s",
			sawFetch, procPush, sawPush, res.Trace.Tree())
	}
}
