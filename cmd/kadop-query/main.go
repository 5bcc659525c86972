// Command kadop-query evaluates a tree-pattern query against a running
// KadoP deployment from an ephemeral query peer.
//
//	kadop-query -bootstrap 127.0.0.1:7001 -id 99 '//article//author[. contains "Ullman"]'
//
// The -strategy flag selects a Section 5.3 Bloom-reducer plan; -index
// stops after phase one and prints the candidate documents; -explain
// prints the query's trace tree — every phase with its latency and the
// bytes moved per traffic class; -explain-analyze adds the per-phase
// work table of the operator actuals the query recorded.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kadop"
)

func main() {
	var (
		bootstrap = flag.String("bootstrap", "", "address of any running peer (required)")
		id        = flag.Uint("id", 0, "internal peer id for this query peer (unique, > 0)")
		listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		strategy  = flag.String("strategy", "conventional", "conventional|ab|db|bloom|subquery")
		useDPP    = flag.Bool("dpp", false, "the deployment partitions posting lists (-dpp on its peers)")
		cache     = flag.Int64("cache", 0, "posting-block cache capacity in bytes for this query peer (0 = off; needs -dpp)")
		indexOnly = flag.Bool("index", false, "run the index query only; print candidate documents")
		repl      = flag.Int("replication", 1, "index replication factor (must match the deployment's peers)")
		explain   = flag.Bool("explain", false, "print the query's trace tree (per-phase latency and bytes)")
		analyze   = flag.Bool("explain-analyze", false, "like -explain, plus the per-phase work table: actual blocks, bytes, postings, matches and documents evaluated")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and the /debug/ paths (listed at /) on this address; keeps the process up after the query for inspection")
		logPath   = flag.String("log", "", "append one structured JSONL record per query to this file, rotated at 64MiB keeping 3 (- = stderr)")
		slowThr   = flag.Duration("slow", 0, "slow-query capture threshold: queries at or over it are logged with their full trace (0 = off)")
	)
	flag.Parse()
	if *bootstrap == "" || *id == 0 || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: kadop-query -bootstrap ADDR -id N 'QUERY'")
		os.Exit(2)
	}
	strat, err := parseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kadop-query:", err)
		os.Exit(2)
	}
	q, err := kadop.ParseQuery(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "kadop-query:", err)
		os.Exit(2)
	}

	// A client peer: it looks up and fetches but never joins routing
	// tables, so firing off ephemeral queries does not disturb the
	// overlay's key ownership.
	cfg := kadop.Config{UseDPP: *useDPP, CacheBytes: *cache, DHT: kadop.DHTConfig{
		Replication: *repl,
		Retry: kadop.RetryPolicy{
			Attempts:    3,
			BaseBackoff: 50 * time.Millisecond,
			MaxBackoff:  time.Second,
		},
	}}
	cfg.SlowQuery = *slowThr
	if *logPath != "" {
		var w io.Writer = os.Stderr
		if *logPath != "-" {
			// Size-capped rotation keeps a long-lived query log's disk
			// footprint bounded: file, file.1 (newest rotated) … file.3.
			f, err := kadop.OpenRotatingLog(*logPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "kadop-query: query log:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		cfg.QueryLog = kadop.NewQueryLog(w)
	}
	peer, err := kadop.NewTCPClientPeer(*listen, kadop.PeerID(*id), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kadop-query:", err)
		os.Exit(1)
	}
	defer peer.Node().Close()

	// Slow-query capture needs the tracer too: without it queries carry
	// no trace id, so the captured record would have no span tree and
	// the latency histogram no exemplar to link back to.
	var tracer *kadop.Tracer
	if *explain || *analyze || *debugAddr != "" || *slowThr > 0 {
		tracer = kadop.EnableTracing(peer, 16)
	}
	if *debugAddr != "" {
		kadop.EnableFlight(peer)
		addr, stop, err := kadop.ServeDebug(*debugAddr, peer, kadop.DebugOptions{Tracer: tracer, BuildInfo: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "kadop-query: debug endpoint %s: %v\n", *debugAddr, err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "kadop-query: debug endpoint on http://%s\n", addr)
	}

	if err := kadop.JoinClient(peer, *bootstrap); err != nil {
		fmt.Fprintln(os.Stderr, "kadop-query: join:", err)
		os.Exit(1)
	}

	res, err := peer.Query(q, kadop.QueryOptions{Strategy: strat, IndexOnly: *indexOnly})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kadop-query:", err)
		os.Exit(1)
	}
	if *explain || *analyze {
		fmt.Println("--- explain ---")
		fmt.Print(kadop.FormatExplain(res, *analyze))
		fmt.Println("---------------")
	}
	fmt.Printf("index query: %v (first answer %v), %d candidate documents\n",
		res.IndexTime, res.FirstAnswer, len(res.Docs))
	if *indexOnly {
		for _, d := range res.Docs {
			uri, err := peer.URI(d)
			if err != nil {
				uri = "?"
			}
			fmt.Printf("  %v  %s\n", d, uri)
		}
	} else {
		fmt.Printf("total: %v, %d answers\n", res.Total, len(res.Matches))
		for _, m := range res.Matches {
			uri, err := peer.URI(m.Doc)
			if err != nil {
				uri = "?"
			}
			fmt.Printf("  %s (%v):", uri, m.Doc)
			for _, p := range m.Postings {
				fmt.Printf(" %v", p.SID)
			}
			fmt.Println()
		}
	}
	if *debugAddr != "" {
		// The endpoint exists to be inspected: keep it (and the collected
		// metrics and trace) alive until interrupted.
		fmt.Fprintln(os.Stderr, "kadop-query: serving debug endpoint; Ctrl-C to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
	}
}

func parseStrategy(s string) (kadop.Strategy, error) {
	switch s {
	case "conventional":
		return kadop.Conventional, nil
	case "ab":
		return kadop.ABReducer, nil
	case "db":
		return kadop.DBReducer, nil
	case "bloom":
		return kadop.BloomReducer, nil
	case "subquery":
		return kadop.SubQueryReducer, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}
