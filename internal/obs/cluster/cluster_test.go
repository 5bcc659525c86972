package cluster

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"kadop/internal/admin"
	"kadop/internal/metrics"
)

func TestParseExposition(t *testing.T) {
	in := `# HELP kadop_traffic_bytes_total DHT message bytes by traffic class.
# TYPE kadop_traffic_bytes_total counter
kadop_traffic_bytes_total{class="postings"} 1500
kadop_op_latency_seconds_bucket{op="lookup",le="4e-06"} 1
kadop_op_latency_seconds_bucket{op="lookup",le="+Inf"} 3
kadop_hot_term_bytes{term="l:we\"ird\\term\n"} 36
kadop_load_bytes_served_total 396
`
	samples, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(samples))
	}
	if samples[0].Name != "kadop_traffic_bytes_total" || samples[0].Label("class") != "postings" || samples[0].Value != 1500 {
		t.Errorf("sample 0 = %+v", samples[0])
	}
	if samples[1].Label("le") != "4e-06" {
		t.Errorf("le label = %q", samples[1].Label("le"))
	}
	if got := samples[3].Label("term"); got != "l:we\"ird\\term\n" {
		t.Errorf("unescaped term = %q", got)
	}
	if samples[4].Value != 396 || len(samples[4].Labels) != 0 {
		t.Errorf("bare sample = %+v", samples[4])
	}
}

func TestParseExpositionExemplar(t *testing.T) {
	in := `kadop_op_latency_seconds_bucket{op="query-total",le="0.004096"} 7 # {trace_id="00000000deadbeef"} 0.0031
kadop_op_latency_seconds_bucket{op="query-total",le="+Inf"} 9
`
	samples, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(samples))
	}
	s := samples[0]
	if s.Value != 7 {
		t.Errorf("bucket value = %v", s.Value)
	}
	if s.Exemplar == nil {
		t.Fatal("exemplar not parsed")
	}
	if got := s.Exemplar.TraceID(); got != 0xdeadbeef {
		t.Errorf("exemplar trace id = %#x", got)
	}
	if math.Abs(s.Exemplar.Value-0.0031) > 1e-12 {
		t.Errorf("exemplar value = %v", s.Exemplar.Value)
	}
	if samples[1].Exemplar != nil {
		t.Errorf("bare bucket grew an exemplar: %+v", samples[1].Exemplar)
	}
}

func TestParseExpositionRejectsMalformedExemplar(t *testing.T) {
	bad := []string{
		"kadop_b{op=\"x\"} 1 # trace_id=\"7\" 0.1\n",    // no label braces
		"kadop_b{op=\"x\"} 1 # {trace_id=\"7\"} ten\n",  // bad exemplar value
		"kadop_b{op=\"x\"} 1 # {trace_id=\"7\" 0.1\n",   // unterminated labels
		"kadop_b{op=\"x\"} 1 # {trace_id=\"a\\q\"} 1\n", // bad escape
	}
	for _, in := range bad {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("accepted malformed exemplar %q", in)
		}
	}
}

// TestEscapingRoundTrip feeds label values containing every escapable
// character through the real exporter and back through this parser,
// exemplars included: what the exporter writes, the scraper must read
// back byte-identically.
func TestEscapingRoundTrip(t *testing.T) {
	weird := "we\"ird\\term\nwith all three"
	col := metrics.NewCollector()
	col.Count(metrics.Class(weird), 64)
	col.ObserveExemplar(metrics.OpQueryTotal, 3*time.Millisecond, 0x77)
	load := metrics.NewLoad(4)
	load.Serve(weird, 2)

	var buf strings.Builder
	if err := metrics.WriteProm(&buf, metrics.PromOptions{Collector: col, Load: load}); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("parser rejected exporter output: %v\n%s", err, buf.String())
	}
	var gotClass, gotTerm, gotExemplar bool
	for _, s := range samples {
		if s.Name == "kadop_traffic_bytes_total" && s.Label("class") == weird {
			gotClass = true
		}
		if s.Name == "kadop_hot_term_bytes" && s.Label("term") == weird {
			gotTerm = true
		}
		if s.Name == "kadop_op_latency_seconds_bucket" && s.Exemplar != nil {
			if got := s.Exemplar.TraceID(); got != 0x77 {
				t.Errorf("round-tripped exemplar trace id = %#x", got)
			}
			gotExemplar = true
		}
	}
	if !gotClass || !gotTerm || !gotExemplar {
		t.Fatalf("round trip lost data: class=%v term=%v exemplar=%v\n%s",
			gotClass, gotTerm, gotExemplar, buf.String())
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	bad := []string{
		"kadop_bytes{class=\"postings\" 15\n", // unterminated label set
		"kadop_bytes{class=postings} 15\n",    // unquoted value
		"kadop_bytes fifteen\n",               // non-numeric value
		"0bad_name 3\n",                       // invalid metric name
		"# TYPE kadop_bytes widget\n",         // unknown type
		"kadop_bytes{class=\"a\\q\"} 1\n",     // bad escape
	}
	for _, in := range bad {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("accepted malformed input %q", in)
		}
	}
}

func TestGini(t *testing.T) {
	if g := Gini(nil); g != 0 {
		t.Errorf("empty Gini = %v", g)
	}
	if g := Gini([]int64{5, 5, 5, 5}); math.Abs(g) > 1e-9 {
		t.Errorf("flat Gini = %v, want 0", g)
	}
	// One peer does everything: Gini = (n-1)/n.
	if g := Gini([]int64{0, 0, 0, 100}); math.Abs(g-0.75) > 1e-9 {
		t.Errorf("concentrated Gini = %v, want 0.75", g)
	}
	flat := Gini([]int64{90, 100, 110, 100})
	skew := Gini([]int64{10, 20, 30, 340})
	if flat >= skew {
		t.Errorf("flat %v should be < skewed %v", flat, skew)
	}
}

func TestMaxMeanRatio(t *testing.T) {
	if r := maxMeanRatio([]int64{100, 100, 100, 100}); math.Abs(r-1) > 1e-9 {
		t.Errorf("flat ratio = %v", r)
	}
	if r := maxMeanRatio([]int64{0, 0, 0, 400}); math.Abs(r-4) > 1e-9 {
		t.Errorf("concentrated ratio = %v", r)
	}
}

func mkSample(name string, labels map[string]string, v float64) Sample {
	if labels == nil {
		labels = map[string]string{}
	}
	return Sample{Name: name, Labels: labels, Value: v}
}

// TestZeroObservationPeers is the regression test for the quantile and
// imbalance merges: peers that have observed nothing — freshly joined,
// or idle — must never turn a report value into NaN or Inf.
func TestZeroObservationPeers(t *testing.T) {
	idle := func(target string) *PeerScrape {
		return &PeerScrape{Target: target, Samples: []Sample{
			mkSample("kadop_op_latency_seconds_bucket", map[string]string{"op": "lookup", "le": "0.001"}, 0),
			mkSample("kadop_op_latency_seconds_bucket", map[string]string{"op": "lookup", "le": "+Inf"}, 0),
			mkSample("kadop_op_latency_seconds_count", map[string]string{"op": "lookup"}, 0),
		}}
	}
	finite := func(rep *Report) {
		t.Helper()
		vals := []float64{rep.MaxMeanRatio, rep.Gini}
		for _, o := range rep.Ops {
			vals = append(vals, o.P50.Seconds(), o.P95.Seconds(), o.P99.Seconds())
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("report value %d is %v:\n%s", i, v, rep.Format())
			}
		}
	}
	// An entire cluster of zero-observation peers.
	rep := BuildReport([]*PeerScrape{idle("a"), idle("b")}, 0)
	finite(rep)
	// A mixed cluster: one busy peer, one idle.
	busy := &PeerScrape{Target: "c", Samples: []Sample{
		mkSample("kadop_op_latency_seconds_bucket", map[string]string{"op": "lookup", "le": "0.001"}, 2),
		mkSample("kadop_op_latency_seconds_count", map[string]string{"op": "lookup"}, 2),
	}}
	busy.Load.BytesServed = 100
	finite(BuildReport([]*PeerScrape{idle("a"), busy}, 0))
	// Format renders without panicking on the degenerate report.
	if out := rep.Format(); !strings.Contains(out, "lookup") {
		t.Errorf("Format() missing the lookup latency row:\n%s", out)
	}
}

func TestHistQuantileDegenerate(t *testing.T) {
	if q := histQuantile(nil, nil, 0, 0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v", q)
	}
	// A bucket whose cumulative count fails to advance (merge artifact)
	// yields its bound, not a division by zero.
	q := histQuantile([]float64{0.1, 0.2}, []int64{0, 2}, 2, 0.5)
	if math.IsNaN(q) || math.IsInf(q, 0) || q <= 0 {
		t.Errorf("non-advancing bucket quantile = %v", q)
	}
	// Count larger than any bucket (all mass in +Inf) clamps to the top
	// bound instead of running off the slice.
	if q := histQuantile([]float64{0.1}, []int64{0}, 5, 0.99); q != 0.1 {
		t.Errorf("overflow quantile = %v, want 0.1", q)
	}
}

// TestScrapeEndToEnd serves real admin endpoints over deterministic
// load/collector state and checks the scraped report end to end,
// merged histograms included.
func TestScrapeEndToEnd(t *testing.T) {
	var targets []string
	for i := 0; i < 3; i++ {
		col := metrics.NewCollector()
		load := metrics.NewLoad(8)
		// Peer i serves i*1000 postings of l:author: a skewed cluster.
		load.Serve("l:author", i*1000)
		load.ServeBlock()
		col.Observe(metrics.OpQueryTotal, time.Duration(i+1)*time.Millisecond)
		addr, stop, err := admin.Serve("127.0.0.1:0", admin.Options{Collector: col, Load: load})
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		targets = append(targets, addr)
	}

	var sc Scraper
	scrapes, err := sc.ScrapeAll(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(scrapes, 4)
	if len(rep.Peers) != 3 || rep.SampleCount == 0 {
		t.Fatalf("report = %+v", rep)
	}
	wantBytes := int64(2000) * metrics.PostingWireBytes
	var gotMax int64
	for _, p := range rep.Peers {
		if p.BytesServed > gotMax {
			gotMax = p.BytesServed
		}
	}
	if gotMax != wantBytes {
		t.Errorf("max bytes served = %d, want %d", gotMax, wantBytes)
	}
	// Cluster-wide hot terms merge per-peer sketches.
	if len(rep.HotTerms) != 1 || rep.HotTerms[0].Term != "l:author" || rep.HotTerms[0].Bytes != 3000*metrics.PostingWireBytes {
		t.Errorf("hot terms = %+v", rep.HotTerms)
	}
	if rep.MaxMeanRatio < 1.9 || rep.Gini <= 0 {
		t.Errorf("imbalance = ratio %v gini %v", rep.MaxMeanRatio, rep.Gini)
	}
	// Merged histogram: 3 query-total observations, one per peer.
	var found bool
	for _, o := range rep.Ops {
		if o.Op == metrics.OpQueryTotal {
			found = true
			if o.Count != 3 || o.P50 <= 0 {
				t.Errorf("merged op = %+v", o)
			}
		}
	}
	if !found {
		t.Error("merged ops missing query-total")
	}
	out := rep.Format()
	for _, want := range []string{"imbalance:", "Gini", "l:author", "query-total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}
