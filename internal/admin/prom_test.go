package admin

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kadop/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedSources builds deterministic collector/load/registry contents:
// fixed counts, durations that land mid-bucket, and a term that needs
// label escaping.
func fixedSources() (*metrics.Collector, *metrics.Load, *metrics.Registry) {
	col := metrics.NewCollector()
	col.Count(metrics.Postings, 1000)
	col.Count(metrics.Postings, 500)
	col.Count(metrics.Routing, 64)
	col.CountEvent(metrics.EventRetry)
	col.AddEvent(metrics.EventCacheBytesSaved, 4096)
	col.Observe(metrics.OpLookup, 3*time.Microsecond)
	col.Observe(metrics.OpLookup, 100*time.Microsecond)
	col.Observe(metrics.OpLookup, 2*time.Millisecond)
	col.Observe(metrics.OpQueryTotal, 10*time.Millisecond)

	load := metrics.NewLoad(8)
	load.Append("l:author", 10)
	load.Serve("overflow:1:l:author", 20)
	load.Serve(`l:we"ird\term`+"\n", 2)
	load.ServeBlock()

	reg := metrics.NewRegistry()
	reg.Counter("kadop_rpc_client_total", "Outgoing RPCs by operation and remote peer.",
		metrics.Label{Key: "op", Value: metrics.OpRPCGet},
		metrics.Label{Key: "peer", Value: "sim://2"}).Add(7)
	reg.Gauge("kadop_peer_up", "Whether the peer is serving.").Set(1)
	return col, load, reg
}

func TestPromExpositionGolden(t *testing.T) {
	col, load, reg := fixedSources()
	var b strings.Builder
	if err := metrics.WriteProm(&b, metrics.PromOptions{Collector: col, Load: load, Registry: reg}); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("exposition output diverged from %s (re-run with -update if intended)\ngot:\n%s", golden, got)
	}
	// Spot-check the properties the golden file encodes, so a future
	// -update cannot silently bake in a regression.
	for _, want := range []string{
		`kadop_traffic_bytes_total{class="postings"} 1500`,
		`kadop_events_total{event="cache-bytes-saved"} 4096`,
		`kadop_op_latency_seconds_bucket{op="lookup",le="4e-06"} 1`,
		`kadop_op_latency_seconds_bucket{op="lookup",le="+Inf"} 3`,
		`kadop_op_latency_seconds_count{op="lookup"} 3`,
		`kadop_load_bytes_served_total 396`,
		`kadop_hot_term_bytes{term="l:author"} 540`,
		`kadop_hot_term_bytes{term="l:we\"ird\\term\n"} 36`,
		`kadop_rpc_client_total{op="rpc:get",peer="sim://2"} 7`,
		`kadop_peer_up 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(got, "# TYPE kadop_op_latency_seconds histogram") {
		t.Error("missing histogram TYPE line")
	}
}

func TestLoadEndpoint(t *testing.T) {
	_, load, _ := fixedSources()
	addr, stop, err := Serve("127.0.0.1:0", Options{Load: load})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var ex metrics.LoadExport
	if err := json.Unmarshal(get(t, "http://"+addr+"/debug/load"), &ex); err != nil {
		t.Fatal(err)
	}
	if ex.BytesServed != 22*metrics.PostingWireBytes || ex.BlocksServed != 1 {
		t.Errorf("load export = %+v", ex)
	}
	if len(ex.HotTerms) == 0 || ex.HotTerms[0].Term != "l:author" {
		t.Errorf("hot terms = %+v", ex.HotTerms)
	}
}

// TestScrapeWhileRecordingRace hammers every recording path while
// scraping /metrics; run under -race it proves scrapes never tear.
func TestScrapeWhileRecordingRace(t *testing.T) {
	col := metrics.NewCollector()
	load := metrics.NewLoad(16)
	reg := metrics.NewRegistry()
	addr, stop, err := Serve("127.0.0.1:0", Options{Collector: col, Load: load, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			col.Count(metrics.Postings, 100)
			col.Observe(metrics.OpLookup, time.Duration(i%1000)*time.Microsecond)
			col.CountEvent(metrics.EventRetry)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			load.Serve("l:author", 5)
			load.Append("w:x", 1)
			load.ServeBlock()
			_ = i
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			reg.Counter("kadop_rpc_client_total", "h",
				metrics.Label{Key: "op", Value: metrics.OpRPCGet},
				metrics.Label{Key: "peer", Value: "p"}).Add(1)
		}
	}()

	for i := 0; i < 20; i++ {
		body := string(get(t, "http://"+addr+"/metrics"))
		if !strings.Contains(body, "kadop_load_bytes_served_total") {
			t.Fatalf("scrape %d missing load family:\n%s", i, body)
		}
	}
	close(done)
	wg.Wait()
}
