// Package kadop is the public face of this repository: a from-scratch
// Go implementation of KadoP, the DHT-based peer-to-peer XML indexing
// and query processing system of "XML processing in DHT networks"
// (Abiteboul, Manolescu, Polyzotis, Preda, Sun — ICDE 2008).
//
// A KadoP deployment is a set of peers connected by a Kademlia-style
// distributed hash table. Peers publish XML documents: the documents
// stay at their publisher, while the index — postings of element labels
// and words, identified by structural ids — is distributed across all
// peers by term. Tree-pattern queries (an XPath subset) are answered in
// two phases: an index query joins the terms' posting lists with a
// holistic twig join to find candidate documents, then the documents'
// peers compute the final answers. Publishing is one operation however
// many documents a call carries: PublishXML is PublishXMLBatch with one
// document, and a call's postings merge per term before they are
// appended.
//
// The three contributions of the paper are all available:
//
//   - DPP (Section 4): posting lists of popular terms partition into
//     range-condition blocks spread over peers, fetched in parallel and
//     filtered by document intervals (Config.UseDPP).
//   - Structural Bloom Filters (Section 5): AB/DB filters reduce
//     posting transfers; select a strategy with QueryOptions.Strategy.
//   - Fundex (Section 6): intensional documents (external entity
//     includes) indexed once and completed through reverse pointers
//     (the Intensional type).
//
// The quickest start is a simulated deployment:
//
//	cluster, _ := kadop.NewSimCluster(8, kadop.Config{})
//	defer cluster.Close()
//	cluster.Peer(0).PublishXML(xmlBytes, "doc.xml")
//	q := kadop.MustParseQuery(`//article//author[. contains "Ullman"]`)
//	res, _ := cluster.Peer(1).Query(q, kadop.QueryOptions{})
//
// For real multi-node deployments, create peers over TCP with NewTCPPeer
// and join them with Join. The cmd/kadop-peer, cmd/kadop-publish and
// cmd/kadop-query programs wrap exactly this API.
package kadop

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kadop/internal/admin"
	"kadop/internal/dht"
	"kadop/internal/dpp"
	"kadop/internal/fundex"
	ikadop "kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/obs/flight"
	"kadop/internal/obs/querylog"
	"kadop/internal/obs/slo"
	"kadop/internal/pattern"
	"kadop/internal/replicate"
	"kadop/internal/sid"
	"kadop/internal/store"
	"kadop/internal/trace"
)

// Re-exported core types. The underlying packages carry the full
// documentation.
type (
	// Config configures a peer (DPP, caching, durability, replication).
	Config = ikadop.Config
	// Peer is one KadoP peer.
	Peer = ikadop.Peer
	// Query is a tree-pattern query.
	Query = pattern.Query
	// QueryOptions select the evaluation strategy for one query.
	QueryOptions = ikadop.QueryOptions
	// Result is a query's outcome.
	Result = ikadop.Result
	// Strategy is a phase-one transfer strategy (Section 5.3).
	Strategy = ikadop.Strategy
	// DPPOptions configure distributed posting partitioning.
	DPPOptions = dpp.Options
	// DocKey identifies a document in the collection.
	DocKey = sid.DocKey
	// PeerID is a peer's internal integer identifier.
	PeerID = sid.PeerID
	// LinkModel shapes simulated network links.
	LinkModel = dht.LinkModel
	// DHTConfig configures the overlay node (replication, retries,
	// repair cadence) via Config.DHT.
	DHTConfig = dht.Config
	// RetryPolicy governs RPC retry attempts and backoff.
	RetryPolicy = dht.RetryPolicy
	// TrafficClass labels traffic in the collector reports.
	TrafficClass = metrics.Class
	// Intensional layers Section 6 intensional-data handling on a peer.
	Intensional = fundex.Indexer
	// IntensionalMode selects naive/brutal/fundex/inline/representative.
	IntensionalMode = fundex.Mode
	// Resolver materialises referenced documents for the Fundex.
	Resolver = fundex.Resolver
	// Tracer records query traces into a bounded in-memory ring.
	Tracer = trace.Tracer
	// Trace is one recorded query timeline; render it with Tree().
	Trace = trace.Trace
	// QueryLogger emits one structured JSONL record per query; install
	// one via Config.QueryLog.
	QueryLogger = querylog.Logger
	// FlightRecorder is the per-peer forensic ring of recent annotated
	// events; install one via EnableFlight.
	FlightRecorder = flight.Recorder
	// FlightWatchdog snapshots a flight recorder to disk when tripped.
	FlightWatchdog = flight.Watchdog
	// SLOEngine evaluates declarative objectives with multi-window
	// burn-rate alerting; build one via EnableSLO.
	SLOEngine = slo.Engine
	// SLOAlert is one burn-rate condition newly met.
	SLOAlert = slo.Alert
	// SLOStatus is one objective's current evaluation.
	SLOStatus = slo.Status
	// ReplicateConfig parameterises the adaptive hot-term replication
	// controller (Config.Replicate): promotion threshold, lease TTL and
	// control-loop interval.
	ReplicateConfig = replicate.Config
	// ReplicationController is the per-peer closed loop promoting hot
	// terms to extra replicas; reach it via Peer.Replicator.
	ReplicationController = replicate.Controller
	// FsyncPolicy selects when the index WAL is fsynced (Config.Fsync):
	// it trades publish throughput for the durability window, never
	// consistency — a crash under any policy recovers to a committed
	// prefix.
	FsyncPolicy = store.FsyncPolicy
	// BatchingConfig tunes the publish-path write coalescer
	// (Config.Batching): concurrent index appends group into single WAL
	// commits, one fsync per batch.
	BatchingConfig = ikadop.BatchingConfig
	// BatchDoc is one document of a Peer.PublishXMLBatch call
	// (Peer.PublishXML is that call with one document).
	BatchDoc = ikadop.BatchDoc
	// TreeDoc is one document of a Peer.PublishBatch call (already
	// parsed; Peer.Publish is that call with one document).
	TreeDoc = ikadop.TreeDoc
)

// Index WAL fsync policies (Config.Fsync, effective with
// Config.DataDir).
const (
	// FsyncAlways makes every acknowledged publish durable (default).
	FsyncAlways = store.FsyncAlways
	// FsyncInterval group-commits: a crash loses at most ~50ms of
	// acknowledged operations.
	FsyncInterval = store.FsyncInterval
	// FsyncOff leaves flushing to the OS page cache.
	FsyncOff = store.FsyncOff
)

// ParseFsyncPolicy parses "always", "interval" or "off" (the -fsync
// flag of kadop-peer).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return store.ParseFsyncPolicy(s) }

// Query strategies (Section 5.3).
const (
	Conventional    = ikadop.Conventional
	ABReducer       = ikadop.ABReducer
	DBReducer       = ikadop.DBReducer
	BloomReducer    = ikadop.BloomReducer
	SubQueryReducer = ikadop.SubQueryReducer
	// AutoStrategy picks a plan from the stored list sizes (the paper's
	// Section 5.4 heuristic).
	AutoStrategy = ikadop.AutoStrategy
)

// Intensional-data modes (Section 6).
const (
	Naive          = fundex.Naive
	Brutal         = fundex.Brutal
	Fundex         = fundex.Fundex
	Inline         = fundex.Inline
	Representative = fundex.Representative
)

// ParseQuery parses the supported XPath subset into a tree-pattern
// query (see internal/pattern for the grammar).
func ParseQuery(s string) (*Query, error) { return pattern.Parse(s) }

// MustParseQuery is ParseQuery for statically known strings; it panics
// on error.
func MustParseQuery(s string) *Query { return pattern.MustParse(s) }

// NewIntensional layers intensional-data support (Section 6) over a
// peer. All peers of a deployment must use the same mode and must be
// able to resolve the same reference URIs.
func NewIntensional(p *Peer, mode IntensionalMode, resolve Resolver) *Intensional {
	return fundex.New(p, mode, resolve)
}

// EnableTracing installs a fresh tracer keeping the peer's most recent
// capacity traces (16 if capacity <= 0) and returns it. Every query the
// peer runs from then on records a phase-attributed timeline, viewable
// through Result.Trace or the debug endpoint. Tracing is off until this
// is called; the untraced hot path costs two words per message and one
// context lookup per operation.
func EnableTracing(p *Peer, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 16
	}
	tr := trace.New(capacity)
	p.Node().SetTracer(tr)
	return tr
}

// EnableFlight installs a flight recorder retaining the peer's most
// recent 4096 events and returns it. From then on the peer's RPCs,
// robustness events, cache misses and query completions land in the
// ring, dumpable via /debug/flight or Recorder.TakeDump. The recorder
// stays on in production: recording is one shard-local lock and a
// struct copy per event.
func EnableFlight(p *Peer) *FlightRecorder {
	rec := flight.New(4096)
	p.Node().SetFlight(rec)
	if c := p.BlockCache(); c != nil {
		c.SetFlight(rec)
	}
	return rec
}

// SLOOptions configure EnableSLO. The objectives are fixed: 99.9%
// query availability and 99% of queries under ~500ms, alerting on the
// classic SRE multi-window burn-rate pairs (5m/1h at 14.4x pages,
// 30m/6h at 6x tickets), evaluated every 5 seconds.
type SLOOptions struct {
	// FlightDir, when set, arms a flight watchdog: each burn-rate alert
	// snapshots the peer's flight recorder into this directory
	// (rate-limited), so the forensics of the moment the budget started
	// burning survive the ring. Install the recorder with EnableFlight.
	FlightDir string
	// OnAlert additionally receives each burn-rate alert transition.
	OnAlert func(SLOAlert)
}

// EnableSLO builds and starts the peer's SLO engine with two
// objectives over counters the peer already maintains:
//
//	query-availability  queries that did not error
//	query-latency       queries at or under the latency threshold
//
// Burn rates and verdicts are exported as kadop_slo_* gauges on
// /metrics (and /debug/slo via ServeDebug), where kadop-top picks them
// up for the cluster health verdict. The returned stop function halts
// the background evaluation loop.
func EnableSLO(p *Peer, o SLOOptions) (*SLOEngine, func(), error) {
	const (
		availability     = 0.999
		latencyTarget    = 0.99
		latencyThreshold = 500 * time.Millisecond
	)
	reg := p.Node().Registry()
	queries := reg.Counter("kadop_queries_total", "Queries evaluated by this peer.")
	errors := reg.Counter("kadop_query_errors_total", "Queries that failed (after retries and partial-result handling).")
	onAlert := o.OnAlert
	if o.FlightDir != "" {
		// The watchdog resolves the recorder lazily at the first alert, so
		// EnableFlight and EnableSLO may be called in either order.
		var wd *FlightWatchdog
		var once sync.Once
		dir, user := o.FlightDir, o.OnAlert
		onAlert = func(a SLOAlert) {
			once.Do(func() { wd = flight.NewWatchdog(p.Node().Flight(), dir, 0) })
			wd.Trip(a.String())
			if user != nil {
				user(a)
			}
		}
	}
	eng, err := slo.New(slo.Config{
		Objectives: []slo.Objective{
			{
				Name:        "query-availability",
				Description: fmt.Sprintf("%.4g%% of queries succeed", availability*100),
				Target:      availability,
				Source: slo.CounterSource(
					func() int64 { return queries.Value() - errors.Value() },
					errors.Value,
				),
			},
			{
				Name:        "query-latency",
				Description: fmt.Sprintf("%.4g%% of queries under %s", latencyTarget*100, latencyThreshold),
				Target:      latencyTarget,
				Source:      slo.LatencySource(p.Node().Metrics(), metrics.OpQueryTotal, latencyThreshold),
			},
		},
		Registry: reg,
		OnAlert:  onAlert,
	})
	if err != nil {
		return nil, nil, err
	}
	return eng, eng.Start(5 * time.Second), nil
}

// DebugOptions select what the introspection endpoint exposes beyond
// the peer's always-available sections (metrics, load, peer, cache,
// flight).
type DebugOptions struct {
	// Tracer exposes /debug/traces (from EnableTracing).
	Tracer *Tracer
	// SLO exposes /debug/slo (from EnableSLO).
	SLO *SLOEngine
	// Pprof mounts the net/http/pprof profiling handlers — off by
	// default because the debug address is often bound on a reachable
	// interface.
	Pprof bool
	// BuildInfo adds kadop_build_info and the process start-time gauge
	// to /metrics. The binaries turn it on.
	BuildInfo bool
}

// ServeDebug starts the live introspection endpoint for a peer on addr
// (e.g. "127.0.0.1:6060"); its index page at / lists every path. It
// returns the bound address and a shutdown function. The peer's flight
// recorder (EnableFlight) and block cache are picked up automatically;
// tracer and SLO engine are passed through DebugOptions.
func ServeDebug(addr string, p *Peer, o DebugOptions) (string, func() error, error) {
	return admin.Serve(addr, admin.Options{
		Collector: p.Node().Metrics(),
		Tracer:    o.Tracer,
		Node:      p.Node(),
		Docs:      p.DocumentCount,
		Cache:     p.BlockCache(),
		Pprof:     o.Pprof,
		SLO:       o.SLO,
		BuildInfo: o.BuildInfo,
	})
}

// FormatExplain renders a query result for -explain/-explain-analyze:
// the span tree, and with analyze also the per-phase table of the
// operator actuals the query recorded (Result.Cost).
func FormatExplain(res *Result, analyze bool) string {
	return ikadop.FormatExplain(res, analyze)
}

// NewQueryLog returns a query logger writing JSONL records to w; set
// it on Config.QueryLog before creating the peer. The kadop-query
// -log flag is a thin wrapper around this.
func NewQueryLog(w io.Writer) *QueryLogger {
	return querylog.New(w)
}

// OpenRotatingLog opens a size-capped JSONL sink for NewQueryLog: when
// path would exceed 64MiB it is rotated to path.1 … path.3 and a fresh
// file opened, so a long-lived peer's query log has a bounded disk
// footprint.
func OpenRotatingLog(path string) (io.WriteCloser, error) {
	return querylog.OpenRotating(path, querylog.DefaultMaxLogBytes, 3)
}

// SimCluster is an in-process deployment: every peer runs over the
// simulated network, which models link latency/bandwidth and accounts
// traffic. It is the vehicle for experiments and tests — one process
// comfortably hosts hundreds of peers.
type SimCluster struct {
	net   *dht.Network
	nodes []*dht.Node
	peers []*ikadop.Peer
}

// NewSimCluster starts n peers on a fresh simulated network, fully
// bootstrapped, with internal peer ids 1..n.
func NewSimCluster(n int, cfg Config) (*SimCluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("kadop: cluster needs at least one peer")
	}
	c := &SimCluster{net: dht.NewNetwork()}
	for i := 0; i < n; i++ {
		nd, err := dht.NewNode(c.net.NewEndpoint(), store.NewMem(), cfg.DHT)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
	}
	for i := 1; i < n; i++ {
		if err := c.nodes[i].Bootstrap(c.nodes[0].Self()); err != nil {
			return nil, err
		}
	}
	for _, nd := range c.nodes {
		if _, err := nd.Lookup(nd.Self().ID); err != nil {
			return nil, err
		}
	}
	for i, nd := range c.nodes {
		p, err := ikadop.NewPeer(nd, sid.PeerID(i+1), cfg)
		if err != nil {
			return nil, err
		}
		c.peers = append(c.peers, p)
	}
	for _, p := range c.peers {
		if err := p.Announce(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Peer returns the i-th peer (0-based).
func (c *SimCluster) Peer(i int) *Peer { return c.peers[i] }

// Size returns the number of peers.
func (c *SimCluster) Size() int { return len(c.peers) }

// SetLinkModel installs a latency/bandwidth model on the simulated
// network (zero value = infinitely fast links).
func (c *SimCluster) SetLinkModel(m LinkModel) { c.net.SetModel(m) }

// TrafficBytes reports the bytes moved so far in one traffic class.
func (c *SimCluster) TrafficBytes(class TrafficClass) int64 {
	return c.net.Collector.Bytes(class)
}

// TrafficReport renders all traffic counters.
func (c *SimCluster) TrafficReport() string { return c.net.Collector.Snapshot() }

// EnableTracing installs one shared tracer on every peer of the
// cluster (capacity <= 0 defaults to 16) and returns it. Because the
// tracer is shared, server-side spans join the querying peer's trace
// and a query's timeline shows the whole cluster's work.
func (c *SimCluster) EnableTracing(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 16
	}
	tr := trace.New(capacity)
	for _, nd := range c.nodes {
		nd.SetTracer(tr)
	}
	return tr
}

// LatencyQuantile reports the q-quantile (0..1) of the named operation's
// latency histogram — e.g. kadop.OpQueryTotal — over the cluster's
// shared collector. Zero when the operation was never observed.
func (c *SimCluster) LatencyQuantile(op string, q float64) time.Duration {
	return c.net.Collector.Quantile(op, q)
}

// Histogram operation names accepted by LatencyQuantile.
const (
	OpLookup           = metrics.OpLookup
	OpPostingsTransfer = metrics.OpPostingsTransfer
	OpTwigJoin         = metrics.OpTwigJoin
	OpFilterExchange   = metrics.OpFilterExchange
	OpQueryIndex       = metrics.OpQueryIndex
	OpQueryTotal       = metrics.OpQueryTotal
	OpSecondPhase      = metrics.OpSecondPhase
)

// ResetTraffic zeroes the traffic counters.
func (c *SimCluster) ResetTraffic() { c.net.Collector.Reset() }

// Close shuts the cluster down.
func (c *SimCluster) Close() {
	for _, nd := range c.nodes {
		nd.Close()
	}
}

// NewTCPPeer starts a peer listening on addr (e.g. "127.0.0.1:0") with
// the given internal id. With Config.DataDir set the peer is durable:
// its index is a B+-tree with WAL at DataDir/index.bt under
// Config.Fsync, beside the peer-state log and the DPP root log, all
// surviving restarts; without it the index is in memory. Join it to an
// existing deployment with Join; restart a durable peer from the same
// DataDir and call Resync after rejoining. Shut it down with
// Peer.Close, which flushes and closes the store.
func NewTCPPeer(addr string, id PeerID, cfg Config) (*Peer, error) {
	tr, err := dht.NewTCPTransport(addr, metrics.NewCollector(), 30*time.Second)
	if err != nil {
		return nil, err
	}
	var st store.Store = store.NewMem()
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			tr.Close()
			return nil, err
		}
		st, err = store.OpenBTreeOptions(filepath.Join(cfg.DataDir, "index.bt"), store.Options{Fsync: cfg.Fsync})
		if err != nil {
			tr.Close()
			return nil, err
		}
	}
	if cfg.Batching.Enabled {
		// The coalescer turns concurrent index appends into group
		// commits: one WAL transaction and one fsync per batch. The 2ms
		// linger lets concurrent publishers pile into a batch whatever
		// the disk speed. Close order is unchanged — closing the
		// coalescer drains its queue and closes the wrapped store.
		st = store.NewCoalescer(st, store.CoalesceOptions{MaxDelay: 2 * time.Millisecond})
	}
	nd, err := dht.NewNode(tr, st, cfg.DHT)
	if err != nil {
		tr.Close()
		st.Close()
		return nil, err
	}
	p, err := ikadop.NewPeer(nd, id, cfg)
	if err != nil {
		nd.Close()
		st.Close()
		return nil, err
	}
	p.AttachStore(st)
	return p, nil
}

// NewTCPClientPeer starts a query-only peer over TCP: it never enters
// other peers' routing tables and owns no index keys, so it may come
// and go freely without destabilising the overlay (a short-lived full
// peer takes ownership of keys and leaves dangling owners behind when
// it exits). Join it with JoinClient; it cannot publish durably.
func NewTCPClientPeer(addr string, id PeerID, cfg Config) (*Peer, error) {
	tr, err := dht.NewTCPTransport(addr, metrics.NewCollector(), 30*time.Second)
	if err != nil {
		return nil, err
	}
	dcfg := cfg.DHT
	dcfg.Client = true
	nd, err := dht.NewNode(tr, store.NewMem(), dcfg)
	if err != nil {
		tr.Close()
		return nil, err
	}
	return ikadop.NewPeer(nd, id, cfg)
}

// JoinClient bootstraps a client peer without announcing it (clients
// hold no documents, so nothing needs to find them by id).
func JoinClient(p *Peer, bootstrapAddr string) error {
	return p.Node().Bootstrap(dht.Contact{Addr: bootstrapAddr})
}

// Join bootstraps a peer into the overlay through a known address and
// announces it in the Peer relation.
func Join(p *Peer, bootstrapAddr string) error {
	if bootstrapAddr != "" {
		if err := p.Node().Bootstrap(dht.Contact{Addr: bootstrapAddr}); err != nil {
			return err
		}
	}
	return p.Announce()
}
