// Command kadop-peer runs one long-lived KadoP peer over TCP.
//
// The first peer of a deployment needs no bootstrap address; every
// later peer joins through any running peer:
//
//	kadop-peer -listen 127.0.0.1:7001 -id 1 -data /var/lib/kadop/p1
//	kadop-peer -listen 127.0.0.1:7002 -id 2 -bootstrap 127.0.0.1:7001
//
// The peer serves its slice of the distributed index and answers
// phase-two query evaluation (queries with a wildcard) for the
// documents it publishes. Use
// kadop-publish and kadop-query against any running peer.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"kadop"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		bootstrap = flag.String("bootstrap", "", "address of any running peer (empty for the first peer)")
		id        = flag.Uint("id", 0, "internal peer id (unique across the deployment, > 0)")
		dataDir   = flag.String("data", "", "durable data directory: index WAL, published documents and directory entries survive restarts from it")
		fsyncMode = flag.String("fsync", "always", "index WAL fsync policy with -data: always|interval|off")
		batch     = flag.Bool("batch", false, "coalesce concurrent index appends into group-committed WAL batches (one fsync per batch, 2ms linger)")
		useDPP    = flag.Bool("dpp", false, "enable distributed posting partitioning")
		cache     = flag.Int64("cache", 0, "posting-block cache capacity in bytes (0 = off; effective with -dpp)")
		repl      = flag.Int("replication", 1, "index replication factor (all peers of a deployment must agree)")
		repair    = flag.Duration("repair", 0, "replica repair cadence, e.g. 30s (0 = off; needs -replication > 1)")
		replicate = flag.Duration("replicate", 0, "adaptive hot-term replication control-loop cadence, e.g. 10s (0 = off)")
		shedRate  = flag.Float64("shed-rate", 0, "admission gate: sustained reads/second served before shedding, burst max(shed-rate,1) (0 = off)")
		republish = flag.Duration("republish", 0, "directory re-registration cadence, e.g. 5m (0 = off)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and the /debug/ paths (listed at /) on this address (off by default)")
		pprofOn   = flag.Bool("pprof", false, "also serve /debug/pprof profiling handlers on the debug address")
		flightDir = flag.String("flight-dir", "", "directory for watchdog flight dumps on SLO burn alerts (default <data>/flight with -data)")
		slowQuery = flag.Duration("slow-query", time.Second, "slow-query capture threshold: queries at or over it are logged with their full trace (0 = off)")
		sloOn     = flag.Bool("slo", false, "run the SLO engine: 99.9% of queries succeed, 99% under 500ms, burn-rate alerting (/debug/slo, kadop_slo_* on /metrics)")
	)
	flag.Parse()
	if *id == 0 {
		fmt.Fprintln(os.Stderr, "kadop-peer: -id is required and must be > 0")
		os.Exit(2)
	}
	fsync, err := kadop.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kadop-peer:", err)
		os.Exit(2)
	}

	cfg := kadop.Config{
		UseDPP: *useDPP, CacheBytes: *cache, DHT: deployDHT(*repl, *repair),
		DataDir: *dataDir, Fsync: fsync, RepublishInterval: *republish,
		SlowQuery: *slowQuery, ShedRate: *shedRate,
		Batching: kadop.BatchingConfig{Enabled: *batch},
	}
	if *replicate > 0 {
		cfg.Replicate = kadop.ReplicateConfig{Enabled: true, Interval: *replicate, Seed: int64(*id)}
	}
	// A restart is a start whose data directory already has an index.
	restarting := false
	if *dataDir != "" {
		if _, err := os.Stat(*dataDir); err == nil {
			restarting = true
		}
	}
	peer, err := kadop.NewTCPPeer(*listen, kadop.PeerID(*id), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kadop-peer:", err)
		os.Exit(1)
	}
	// The flight recorder is always-on forensics: it costs a bounded
	// ring of structs and answers "what was this peer doing" after the
	// fact, with or without the debug endpoint.
	kadop.EnableFlight(peer)
	// Slow-query capture and histogram exemplars need trace ids, so the
	// tracer rides along whenever either consumer is on.
	var tracer *kadop.Tracer
	if *debugAddr != "" || *slowQuery > 0 {
		tracer = kadop.EnableTracing(peer, 64)
	}
	var sloEngine *kadop.SLOEngine
	if *sloOn {
		dir := *flightDir
		if dir == "" && *dataDir != "" {
			dir = filepath.Join(*dataDir, "flight")
		}
		eng, stop, err := kadop.EnableSLO(peer, kadop.SLOOptions{
			FlightDir: dir,
			OnAlert: func(a kadop.SLOAlert) {
				fmt.Fprintln(os.Stderr, "kadop-peer:", a)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "kadop-peer: slo:", err)
			os.Exit(2)
		}
		defer stop()
		sloEngine = eng
	}
	if *debugAddr != "" {
		addr, stop, err := kadop.ServeDebug(*debugAddr, peer, kadop.DebugOptions{
			Tracer: tracer, SLO: sloEngine, Pprof: *pprofOn, BuildInfo: true,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "kadop-peer: debug endpoint %s: %v\n", *debugAddr, err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "kadop-peer: debug endpoint on http://%s\n", addr)
	}
	if err := kadop.Join(peer, *bootstrap); err != nil {
		fmt.Fprintln(os.Stderr, "kadop-peer: join:", err)
		os.Exit(1)
	}
	if restarting {
		// Rejoining from durable state: re-register the documents this
		// peer serves and pull index appends made while it was down.
		if err := peer.Reannounce(); err != nil {
			fmt.Fprintln(os.Stderr, "kadop-peer: reannounce:", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		healed, err := peer.Resync(ctx)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "kadop-peer: resync:", err)
		}
		fmt.Fprintf(os.Stderr, "kadop-peer: restarted from %s: %d documents, %d terms resynced\n",
			*dataDir, peer.DocumentCount(), healed)
	}
	fmt.Printf("kadop-peer %d listening on %s\n", *id, peer.Node().Self().Addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	// A terminating peer leaves gracefully: every key it holds is
	// confirmed (or re-pushed) on the remaining owner set before the
	// listener goes down, so the departure loses no index data.
	fmt.Println("kadop-peer: leaving (handing keys off)")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	moved, err := peer.Leave(ctx)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kadop-peer: leave:", err)
		os.Exit(1)
	}
	fmt.Printf("kadop-peer: left cleanly, %d keys handed off\n", moved)
}

// deployDHT is the overlay configuration of a real deployment: retries
// absorb transient network failures, replication > 1 keeps the index
// alive across peer crashes (with repair re-filling lost copies), and
// the refresher keeps idle routing buckets honest under churn.
func deployDHT(replication int, repair time.Duration) kadop.DHTConfig {
	return kadop.DHTConfig{
		Replication: replication,
		Retry: kadop.RetryPolicy{
			Attempts:    3,
			BaseBackoff: 50 * time.Millisecond,
			MaxBackoff:  time.Second,
		},
		RepairInterval:  repair,
		RefreshInterval: 5 * time.Minute,
	}
}
