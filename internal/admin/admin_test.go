package admin

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kadop/internal/dht"
	"kadop/internal/metrics"
	"kadop/internal/store"
	"kadop/internal/trace"
)

func testServer(t *testing.T) (*httptest.Server, *metrics.Collector, *trace.Tracer) {
	t.Helper()
	net := dht.NewNetwork()
	nd, err := dht.NewNode(net.NewEndpoint(), store.NewMem(), dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	tr := trace.New(8)
	srv := httptest.NewServer(Handler(Options{
		Collector: net.Collector,
		Tracer:    tr,
		Node:      nd,
		Docs:      func() int { return 3 },
		Pprof:     true,
	}))
	t.Cleanup(srv.Close)
	return srv, net.Collector, tr
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricsEndpoint(t *testing.T) {
	srv, col, _ := testServer(t)
	col.Count(metrics.Postings, 100)
	col.CountEvent(metrics.EventRetry)
	for i := 0; i < 5; i++ {
		col.Observe(metrics.OpLookup, time.Millisecond)
		col.Observe(metrics.OpPostingsTransfer, 2*time.Millisecond)
		col.Observe(metrics.OpTwigJoin, 500*time.Microsecond)
	}
	var ex metrics.Export
	if err := json.Unmarshal(get(t, srv.URL+"/debug/metrics"), &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Classes["postings"].Bytes != 100 {
		t.Errorf("classes = %+v", ex.Classes)
	}
	if ex.Events["retries"] != 1 {
		t.Errorf("events = %+v", ex.Events)
	}
	for _, op := range []string{metrics.OpLookup, metrics.OpPostingsTransfer, metrics.OpTwigJoin} {
		st, ok := ex.Ops[op]
		if !ok || st.Count != 5 || st.P50 == 0 || st.P95 == 0 || st.P99 == 0 {
			t.Errorf("op %s = %+v", op, st)
		}
	}
}

func TestTracesEndpoint(t *testing.T) {
	srv, _, tr := testServer(t)
	ctx, root := tr.StartTrace(context.Background(), "query")
	_, sp := trace.StartSpan(ctx, "phase:fetch")
	sp.Finish()
	root.Finish()

	var recs []trace.TraceRecord
	if err := json.Unmarshal(get(t, srv.URL+"/debug/traces"), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "query" || len(recs[0].Spans) != 2 {
		t.Fatalf("traces = %+v", recs)
	}
	text := string(get(t, srv.URL+"/debug/traces?format=text"))
	if !strings.Contains(text, "query") || !strings.Contains(text, "phase:fetch") {
		t.Errorf("text traces:\n%s", text)
	}
}

func TestPeerEndpoint(t *testing.T) {
	srv, _, _ := testServer(t)
	var info map[string]any
	if err := json.Unmarshal(get(t, srv.URL+"/debug/peer"), &info); err != nil {
		t.Fatal(err)
	}
	if info["addr"] == "" || info["documents"] != float64(3) {
		t.Errorf("peer info = %+v", info)
	}
	if _, ok := info["routing_table_size"]; !ok {
		t.Errorf("peer info missing table size: %+v", info)
	}
}

// TestNilOptionsSafe requests the index page and every path of the
// endpoint table with zero Options: a path whose subsystem is absent
// may answer 404, but none may fail with a 5xx or panic.
func TestNilOptionsSafe(t *testing.T) {
	srv := httptest.NewServer(Handler(Options{}))
	defer srv.Close()
	paths := []string{"/"}
	for _, e := range endpoints {
		paths = append(paths, e.path)
	}
	for _, p := range paths {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %s", p, resp.Status)
		}
	}
	index := string(get(t, srv.URL+"/"))
	for _, e := range endpoints {
		if !strings.Contains(index, e.path) {
			t.Errorf("index page does not list %s:\n%s", e.path, index)
		}
	}
}

func TestPprofWired(t *testing.T) {
	srv, _, _ := testServer(t)
	b := get(t, srv.URL+"/debug/pprof/")
	if !strings.Contains(string(b), "goroutine") {
		t.Error("pprof index missing profiles")
	}
}

func TestPprofGatedOffByDefault(t *testing.T) {
	srv := httptest.NewServer(Handler(Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof should be absent without Options.Pprof, got %s", resp.Status)
	}
}

func TestServe(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %s", resp.Status)
	}
}
