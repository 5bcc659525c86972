package dht

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"kadop/internal/metrics"
	"kadop/internal/obs/flight"
	"kadop/internal/postings"
	"kadop/internal/store"
	"kadop/internal/trace"
)

// Config holds the overlay parameters.
type Config struct {
	// Replication is how many closest peers hold each key (default 1;
	// the experiments use 1 unless fault tolerance is under test).
	Replication int
	// Client makes the node an observer: it can look up, fetch and call,
	// but never advertises itself, so it joins no routing table and owns
	// no keys. Ephemeral query clients use it — a short-lived full peer
	// would take ownership of keys and poison the overlay when it exits
	// (the paper's low-volatility assumption).
	Client bool
	// Retry governs re-attempts of failed RPCs (zero value: a single
	// attempt, the seed behaviour). Store appends are idempotent, so
	// at-least-once delivery under retry is safe.
	Retry RetryPolicy
	// RPCTimeout bounds each RPC attempt (default 10s). The caller's
	// context deadline still caps the total budget across attempts.
	RPCTimeout time.Duration
	// RepairInterval, when positive, starts the replica-repair loop
	// (the republisher): every interval, ±10% seeded jitter, the node
	// re-checks that each key it holds is present on all Replication
	// owners and re-pushes missing copies, keeping every replica set
	// at full strength despite silent failures and ownership drift.
	RepairInterval time.Duration
	// RefreshInterval, when positive, starts the bucket-refresh loop:
	// every interval, ±10% seeded jitter, buckets no lookup targeted
	// for a full interval are refreshed with a random-identifier
	// lookup, so routing state does not decay on quiet overlays.
	RefreshInterval time.Duration
	// Seed drives the retry jitter RNG (default 1), so seeded chaos
	// runs get reproducible backoff schedules.
	Seed int64

	// chunkSize is the number of postings per stream chunk of the
	// pipelined get (default 512); the framing tests shrink it so short
	// lists span several chunks.
	chunkSize int
}

// Kademlia's bucket size (also the lookup width) and lookup parallelism.
const (
	bucketK = 8
	alpha   = 3
)

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.chunkSize <= 0 {
		c.chunkSize = 512
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ProcHandler serves one application-level procedure (registered by the
// KadoP layer on top of the DHT). The context carries the calling
// query's trace span (when the caller was traced), so handlers that
// issue further DHT calls keep the remote work attributed to the
// originating query.
type ProcHandler func(ctx context.Context, from Contact, key string, blob []byte) ([]byte, error)

// Node is one DHT peer: routing table, local store, and the wire
// handlers for the DHT interface (plus registered application
// procedures).
type Node struct {
	self      Contact
	cfg       Config
	table     *Table
	store     store.Store // metered: every operation accrues to load
	rawStore  store.Store // the same store unmetered, for maintenance reads
	tr        Transport
	collector *metrics.Collector
	load      *metrics.Load
	reg       *metrics.Registry
	rng       *retryRNG
	tracer    atomic.Pointer[trace.Tracer]
	flight    atomic.Pointer[flight.Recorder]

	// gate is the optional read-admission controller (see SetShedGate);
	// gauges remembers the last piggybacked load advertisement per
	// remote peer, feeding power-of-two-choices replica selection.
	gate   atomic.Pointer[ShedGate]
	gauges gaugeCache

	mu    sync.RWMutex
	procs map[string]procEntry

	loopMu    sync.Mutex
	stopLoops []func() // the running maintenance loops' stop functions

	// maintRand drives maintenance randomness (loop jitter, refresh
	// lookup targets); seeded so chaos runs stay reproducible.
	maintMu   sync.Mutex
	maintRand *rand.Rand
}

// NewNode creates a peer over the given transport and local store, and
// starts serving. The node's identifier derives from the transport
// address.
func NewNode(tr Transport, st store.Store, cfg Config) (*Node, error) {
	n := &Node{
		self:  Contact{ID: PeerIDFromSeed(tr.Addr()), Addr: tr.Addr()},
		cfg:   cfg.withDefaults(),
		tr:    tr,
		load:  metrics.NewLoad(metrics.DefaultHotTerms),
		reg:   metrics.NewRegistry(),
		procs: map[string]procEntry{},
	}
	// Every store operation — replicated appends, repair pushes, posting
	// streams, DPP block serves — accrues to this node's per-peer load
	// ledger. The simulated network shares one Collector across all
	// peers, so the per-node Load is what makes skew observable there.
	n.store, n.rawStore = store.Instrument(st, n.load), st
	n.rng = newRetryRNG(n.cfg.Seed)
	// Robustness events land in the transport's collector, next to the
	// traffic they explain.
	if m, ok := tr.(interface{ Metrics() *metrics.Collector }); ok {
		n.collector = m.Metrics()
	}
	n.maintRand = rand.New(rand.NewSource(n.cfg.Seed + 0x5eed))
	n.table = NewTable(n.self.ID, bucketK)
	if err := tr.Serve(n); err != nil {
		return nil, err
	}
	if !n.cfg.Client {
		// The republisher, and the bucket refresher: a bucket counts as
		// stale when no lookup targeted its range for a full interval.
		if d := n.cfg.RepairInterval; d > 0 {
			n.stopLoops = append(n.stopLoops, n.startLoop(d, func(ctx context.Context) { n.RepairOnce(ctx) }))
		}
		if d := n.cfg.RefreshInterval; d > 0 {
			n.stopLoops = append(n.stopLoops, n.startLoop(d, func(ctx context.Context) { n.RefreshOnce(ctx, d) }))
		}
	}
	return n, nil
}

// Self returns this peer's contact record.
func (n *Node) Self() Contact { return n.self }

// from is the sender contact stamped on outgoing requests; client nodes
// send an anonymous contact so receivers do not record them.
func (n *Node) from() Contact {
	if n.cfg.Client {
		return Contact{}
	}
	return n.self
}

// Store exposes the local index store (used by the KadoP layer for
// local index organisation such as DPP blocks).
func (n *Node) Store() store.Store { return n.store }

// localGet reads key's list through a snapshot of the local store, so
// a serving read never blocks behind the writer lock and never observes
// a half-applied publish batch.
func (n *Node) localGet(key string) (postings.List, error) {
	view, err := n.store.Snapshot()
	if err != nil {
		return nil, err
	}
	defer view.Close()
	return view.Get(key)
}

// Metrics exposes the node's collector (the transport's, when the
// transport accounts traffic). May be nil; the collector's methods are
// nil-safe.
func (n *Node) Metrics() *metrics.Collector { return n.collector }

// Load exposes this node's per-peer load ledger: bytes/postings/blocks
// served, appends absorbed, and the hot-term sketch.
func (n *Node) Load() *metrics.Load { return n.load }

// Registry exposes this node's labeled metric registry (per-peer RPC
// counters, plus anything higher layers register).
func (n *Node) Registry() *metrics.Registry { return n.reg }

// SetTracer installs a tracer: queries from this node start traces, and
// requests arriving with trace ids get server-side spans recorded in
// the tracer's ring. A nil tracer (the default) disables tracing.
func (n *Node) SetTracer(t *trace.Tracer) { n.tracer.Store(t) }

// Tracer returns the installed tracer, or nil.
func (n *Node) Tracer() *trace.Tracer { return n.tracer.Load() }

// SetFlight installs a flight recorder: every outgoing RPC and
// robustness event this node counts also drops an annotated entry into
// the ring, so a dump reconstructs what the node was doing right
// before an incident. A nil recorder (the default) disables recording.
func (n *Node) SetFlight(r *flight.Recorder) { n.flight.Store(r) }

// Flight returns the installed flight recorder, or nil.
func (n *Node) Flight() *flight.Recorder { return n.flight.Load() }

// Table exposes the routing table (for diagnostics).
func (n *Node) Table() *Table { return n.table }

// procEntry is a registered application procedure.
type procEntry struct {
	h    ProcHandler
	read bool // registered with HandleRead: a lookup may carry it
}

// Handle registers an application procedure.
func (n *Node) Handle(proc string, h ProcHandler) { n.register(proc, procEntry{h: h}) }

// HandleRead registers an application procedure that changes nothing:
// besides answering calls as Handle's do, it answers a CallRead whose
// lookup reaches this peer as the key's owner, beside the contacts of
// the FIND_NODE reply, so the read costs its caller no round trip of
// its own. It is called with a nil blob there.
func (n *Node) HandleRead(proc string, h ProcHandler) {
	n.register(proc, procEntry{h: h, read: true})
}

func (n *Node) register(proc string, e procEntry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.procs[proc] = e
}

// Close stops the maintenance loops and shuts the node's transport
// down.
func (n *Node) Close() error {
	n.stopMaintenance()
	return n.tr.Close()
}

func (n *Node) stopMaintenance() {
	n.loopMu.Lock()
	for _, stop := range n.stopLoops {
		stop()
	}
	n.stopLoops = nil
	n.loopMu.Unlock()
}
