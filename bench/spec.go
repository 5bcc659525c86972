package main

import (
	"fmt"
	"regexp"
	"time"

	"kadop/internal/dht"
	"kadop/internal/kadop"
	"kadop/internal/store"
)

// Sizes shared by every workload.
const (
	clusterPeers   = 8
	recordsPerDoc  = 25 // workload.DBLP's default cut, ~5 KB of XML per document
	publishBatch   = 16 // documents per PublishXMLBatch call
	dppBlock       = 512
	coalesceLinger = 2 * time.Millisecond
	preloadDocs    = 400  // 10 000 records
	queryMixDraw   = 4096 // workload.QueryMix(seed, n) ...
	queryMixSize   = 512  // ... thinned to a balanced sequence this long, cycled
	warmupShare    = 0.1  // of --seconds, run before the window and not measured
	// corpusDocsPerSecond sizes the documents generated for a publishing
	// window, per publisher and second of --seconds. It is about three
	// times this sandbox's durable publish rate, so the window ends on
	// time and not because the corpus ran out.
	corpusDocsPerSecond = 60
)

// spec is one named workload: the deployment, what runs in the measured
// window, and how answers are checked.
type spec struct {
	name string
	why  string

	// Deployment.
	disk     bool              // disk B+-tree stores, else store.Mem
	fsync    store.FsyncPolicy // of the disk stores
	coalesce bool              // store write coalescer, coalesceLinger
	dataDir  bool              // Config.DataDir: state journal + DPP roots
	cfg      kadop.Config
	link     dht.LinkModel // installed after the preload
	preload  int           // documents published in set-up
	setups   int           // set-up repetitions; setup_s is their median

	// Measured window (closed loop).
	publishers    int // goroutines calling PublishXMLBatch
	windowClients int // goroutines calling Query during the window
	opts          kadop.QueryOptions
	// A publish-only workload warms up by publishing exactly primeDocs
	// documents and then times primeQueries queries on that fixed-size
	// state: its query metrics, independent of how far the window gets.
	primeDocs, primeQueries int
	// verifyQueries are run by verifyClients after a publishing window,
	// on the then quiescent deployment, and checked strictly against
	// everything published.
	verifyQueries, verifyClients int

	// Traced pass: operations per second of --seconds, about a quarter
	// of what the end-to-end window completes, run by one client.
	tracedPublishRate float64 // PublishXMLBatch calls
	tracedQueryRate   float64 // queries (per publish call when both run)
}

func dppConfig(cacheBytes int64) kadop.Config {
	cfg := kadop.Config{UseDPP: true, CacheBytes: cacheBytes}
	cfg.DPP.BlockSize = dppBlock
	return cfg
}

// specs lists the workloads in the order BENCHMARK.json names them.
var specs = []*spec{
	{
		name: "publish_durable",
		why:  "bulk publish into fsync=always disk stores: the write path (xmltree, dht append, store WAL) with the query layers idle",
		disk: true, fsync: store.FsyncAlways, coalesce: true, dataDir: true,
		cfg:        dppConfig(0),
		setups:     5,
		publishers: 2,
		opts:       kadop.QueryOptions{Strategy: kadop.Conventional},
		primeDocs:  8 * publishBatch, primeQueries: 300,
		verifyQueries: 64, verifyClients: 2,
		tracedPublishRate: 0.8,
	},
	{
		name: "query_cpu",
		why:  "full two-phase queries on disk stores over free links: store scans, posting decode, twig join and matching, no network cost",
		disk: true, fsync: store.FsyncOff,
		cfg:     dppConfig(0),
		preload: preloadDocs, setups: 5,
		windowClients: 2, opts: kadop.QueryOptions{Strategy: kadop.Conventional},
		tracedQueryRate: 18,
	},
	{
		name:    "query_wan",
		why:     "index queries on memory stores over 1 ms + 4 MiB/s links with the automatic plan: round trips and bytes dominate, CPU does not",
		cfg:     dppConfig(0),
		link:    dht.LinkModel{Latency: time.Millisecond, BytesPerSec: 4 << 20},
		preload: preloadDocs, setups: 5,
		windowClients: 2, opts: kadop.QueryOptions{Strategy: kadop.AutoStrategy, IndexOnly: true},
		tracedQueryRate: 4,
	},
	{
		name: "mixed_rw",
		why:  "one fsync=always bulk publisher beside one cached index-query client: the store, dpp and blockcache layers under writes and reads at once",
		disk: true, fsync: store.FsyncAlways, coalesce: true,
		cfg:     dppConfig(256 << 10),
		preload: preloadDocs, setups: 1,
		publishers:    1,
		windowClients: 1, opts: kadop.QueryOptions{Strategy: kadop.Conventional, IndexOnly: true},
		verifyQueries: 64, verifyClients: 1,
		tracedPublishRate: 0.6, tracedQueryRate: 12,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Exact marks a per-layer count that the serial traced pass must
	// repeat exactly on one build and seed.
	Exact bool `json:"-"`
}

// Contract limits on metric lists and names.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validateMetrics checks one metric list against the contract: names
// well formed and unique, no more than max entries.
func validateMetrics(defs []metricDef, max int) error {
	if len(defs) == 0 || len(defs) > max {
		return fmt.Errorf("%d metrics, want 1..%d", len(defs), max)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if !metricNameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
	return nil
}
