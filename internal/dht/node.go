package dht

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kadop/internal/metrics"
	"kadop/internal/obs/flight"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
	"kadop/internal/trace"
)

// Config holds the overlay parameters.
type Config struct {
	// K is the bucket size and lookup width (default 8).
	K int
	// Alpha is the lookup parallelism (default 3).
	Alpha int
	// Replication is how many closest peers hold each key (default 1;
	// the experiments use 1 unless fault tolerance is under test).
	Replication int
	// ChunkSize is the number of postings per stream chunk of the
	// pipelined get (default 512).
	ChunkSize int
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
	// ProbeTimeout, when positive, enables probe-on-suspicion failure
	// detection: a contact that fails an RPC after retries is pinged
	// once (bounded by this timeout) before being evicted, so one
	// dropped message does not cost a live peer its table slot. Zero
	// keeps the seed behaviour: evict immediately on failure.
	ProbeTimeout time.Duration
	// Seed drives the retry jitter RNG (default 1), so seeded chaos
	// runs get reproducible backoff schedules.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 8
	}
	if c.Alpha <= 0 {
		c.Alpha = 3
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 512
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

// StreamProcHandler serves one streaming application procedure; it
// sends posting batches through send. The context carries the calling
// query's trace span, as for ProcHandler.
type StreamProcHandler func(ctx context.Context, from Contact, key string, blob []byte, send func(postings.List) error) error

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

	mu          sync.RWMutex
	procs       map[string]ProcHandler
	streamProcs map[string]StreamProcHandler

	repairMu    sync.Mutex
	stopRepair  func()
	stopRefresh func()

	// probing tracks contacts with an outstanding liveness probe so a
	// burst of failures against one peer spawns a single probe.
	probeMu sync.Mutex
	probing map[ID]bool

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
		self:        Contact{ID: PeerIDFromSeed(tr.Addr()), Addr: tr.Addr()},
		cfg:         cfg.withDefaults(),
		tr:          tr,
		load:        metrics.NewLoad(metrics.DefaultHotTerms),
		reg:         metrics.NewRegistry(),
		procs:       map[string]ProcHandler{},
		streamProcs: map[string]StreamProcHandler{},
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
	n.probing = map[ID]bool{}
	n.table = NewTable(n.self.ID, n.cfg.K)
	if err := tr.Serve(n); err != nil {
		return nil, err
	}
	if !n.cfg.Client {
		if n.cfg.RepairInterval > 0 {
			n.stopRepair = n.StartRepair(n.cfg.RepairInterval)
		}
		if n.cfg.RefreshInterval > 0 {
			n.stopRefresh = n.StartRefresh(n.cfg.RefreshInterval)
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

// Handle registers an application procedure.
func (n *Node) Handle(proc string, h ProcHandler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.procs[proc] = h
}

// HandleStreamProc registers a streaming application procedure. By
// convention stream procedure names begin with "stream:".
func (n *Node) HandleStreamProc(proc string, h StreamProcHandler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.streamProcs[proc] = h
}

// call is the retrying RPC primitive every outgoing request funnels
// through: each attempt is bounded by RPCTimeout, transport failures
// retry under the policy, and a contact that stays unreachable is
// evicted from the routing table (the replacement cache refills the
// bucket).
func (n *Node) call(ctx context.Context, to Contact, req Message) (Message, error) {
	parent := trace.FromContext(ctx)
	if parent != nil {
		req.TraceID, req.SpanID = trace.ID(ctx)
	}
	start := time.Now()
	var resp Message
	err := withRetry(ctx, n.cfg.Retry, n.collector, n.rng, func() error {
		actx, cancel := context.WithTimeout(ctx, n.cfg.RPCTimeout)
		defer cancel()
		var cerr error
		resp, cerr = n.tr.Call(actx, to, req)
		if cerr != nil && actx.Err() != nil && ctx.Err() == nil {
			// The attempt timed out but the caller's budget remains: count
			// the timeout and report a retryable error (not a context one,
			// which would end the retry loop).
			n.collector.CountEvent(metrics.EventTimeout)
			return fmt.Errorf("dht: call %s: attempt timed out: %v", to.Addr, cerr)
		}
		return cerr
	})
	if err != nil && Retryable(err) && !to.ID.IsZero() {
		n.noteFailure(to)
	}
	// Even an error response (a shed read, say) carries the responder's
	// load gauge — that rejection is exactly when selection needs it.
	n.noteGauge(to.Addr, resp)
	dur := time.Since(start)
	n.collector.Observe(rpcOp(req.Type), dur)
	n.countPeerRPC(rpcOp(req.Type), to, err)
	n.flightRPC(rpcOp(req.Type), to, req.TraceID, dur, err)
	if parent != nil {
		sp := parent.Child(rpcOp(req.Type), start, dur)
		sp.SetAttr("peer", to.Addr)
		if req.Proc != "" {
			sp.SetAttr("proc", req.Proc)
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}
	return resp, err
}

// flightRPC records one completed outgoing RPC in the flight ring
// (retries folded in, like the latency observation beside it).
func (n *Node) flightRPC(op string, to Contact, traceID uint64, dur time.Duration, err error) {
	fr := n.flight.Load()
	if fr == nil {
		return
	}
	e := flight.Event{Kind: flight.KindRPC, Name: op, Peer: to.Addr, TraceID: traceID, Dur: dur}
	if err != nil {
		e.Err = err.Error()
	}
	fr.Record(e)
}

// countPeerRPC records one outgoing RPC (and its failure, if any) in
// the labeled registry, keyed by operation and remote peer — the
// per-peer breakdown the shared Collector's traffic classes cannot
// express.
func (n *Node) countPeerRPC(op string, to Contact, err error) {
	n.reg.Counter("kadop_rpc_client_total",
		"Outgoing RPCs by operation and remote peer (retried calls count once).",
		metrics.Label{Key: "op", Value: op},
		metrics.Label{Key: "peer", Value: to.Addr}).Add(1)
	if err != nil {
		n.reg.Counter("kadop_rpc_client_errors_total",
			"Outgoing RPCs that failed after retries, by operation and remote peer.",
			metrics.Label{Key: "op", Value: op},
			metrics.Label{Key: "peer", Value: to.Addr}).Add(1)
	}
}

// openStreamPolicy opens a message stream with the same eviction policy
// as call, under an explicit retry policy (retries apply to the stream
// opening only; an error mid-stream surfaces to the consumer): callers
// that rotate replicas themselves (the DPP block fetch) probe each
// candidate once instead of burning the full retry budget on a stale
// one.
func (n *Node) openStreamPolicy(ctx context.Context, to Contact, req Message, retry RetryPolicy) (MsgStream, error) {
	parent := trace.FromContext(ctx)
	if parent != nil {
		req.TraceID, req.SpanID = trace.ID(ctx)
	}
	start := time.Now()
	var ms MsgStream
	err := withRetry(ctx, retry, n.collector, n.rng, func() error {
		actx, cancel := context.WithTimeout(ctx, n.cfg.RPCTimeout)
		defer cancel()
		var cerr error
		ms, cerr = n.tr.OpenStream(actx, to, req)
		if cerr != nil && actx.Err() != nil && ctx.Err() == nil {
			n.collector.CountEvent(metrics.EventTimeout)
			return fmt.Errorf("dht: stream %s: attempt timed out: %v", to.Addr, cerr)
		}
		return cerr
	})
	if err != nil && Retryable(err) && !to.ID.IsZero() {
		n.noteFailure(to)
	}
	dur := time.Since(start)
	n.collector.Observe(rpcOp(req.Type), dur)
	n.countPeerRPC(rpcOp(req.Type), to, err)
	n.flightRPC(rpcOp(req.Type), to, req.TraceID, dur, err)
	if parent != nil {
		sp := parent.Child("stream-open:"+req.Type.String(), start, dur)
		sp.SetAttr("peer", to.Addr)
		if req.Proc != "" {
			sp.SetAttr("proc", req.Proc)
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}
	return ms, err
}

// Bootstrap joins the overlay through the given contacts: it seeds the
// routing table and performs a lookup of the node's own identifier,
// which populates buckets along the path (the standard Kademlia join).
func (n *Node) Bootstrap(seeds ...Contact) error {
	return n.BootstrapContext(context.Background(), seeds...)
}

// BootstrapContext is Bootstrap under a caller-controlled deadline.
func (n *Node) BootstrapContext(ctx context.Context, seeds ...Contact) error {
	for _, c := range seeds {
		if c.ID.IsZero() {
			c.ID = PeerIDFromSeed(c.Addr)
		}
		n.table.Update(c)
	}
	_, err := n.LookupContext(ctx, n.self.ID)
	return err
}

// Lookup performs an iterative Kademlia lookup and returns up to K
// contacts closest to target (including, possibly, this node).
func (n *Node) Lookup(target ID) ([]Contact, error) {
	return n.LookupContext(context.Background(), target)
}

// LookupContext is Lookup under a caller-controlled deadline. Failed
// contacts are evicted and dropped from the shortlist; the lookup
// fails only when the deadline expires or no peer is reachable.
func (n *Node) LookupContext(ctx context.Context, target ID) ([]Contact, error) {
	start := time.Now()
	n.table.Touch(target)
	ctx, sp := trace.StartSpan(ctx, "dht:lookup")
	rounds := 0
	cs, err := n.lookupRun(ctx, target, &rounds)
	n.collector.Observe(metrics.OpLookup, time.Since(start))
	if sp != nil {
		sp.SetInt("rounds", int64(rounds))
		sp.SetInt("contacts", int64(len(cs)))
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.Finish()
	}
	return cs, err
}

// lookupRun is the iterative Kademlia lookup; rounds reports how many
// α-parallel query rounds it took.
func (n *Node) lookupRun(ctx context.Context, target ID, rounds *int) ([]Contact, error) {
	type entry struct {
		c       Contact
		queried bool
	}
	shortlist := map[ID]*entry{}
	if !n.cfg.Client {
		shortlist[n.self.ID] = &entry{c: n.self, queried: true}
	}
	for _, c := range n.table.Closest(target, n.cfg.K) {
		shortlist[c.ID] = &entry{c: c}
	}
	closestOf := func() []Contact {
		out := make([]Contact, 0, len(shortlist))
		for _, e := range shortlist {
			out = append(out, e.c)
		}
		sort.Slice(out, func(i, j int) bool {
			return out[i].ID.XOR(target).Less(out[j].ID.XOR(target))
		})
		if len(out) > n.cfg.K {
			out = out[:n.cfg.K]
		}
		return out
	}

	for {
		if err := ctx.Err(); err != nil {
			n.collector.CountEvent(metrics.EventTimeout)
			return nil, fmt.Errorf("dht: lookup: %w", err)
		}
		// Pick up to Alpha unqueried contacts among the current closest.
		var batch []Contact
		for _, c := range closestOf() {
			e := shortlist[c.ID]
			if !e.queried {
				batch = append(batch, c)
				if len(batch) == n.cfg.Alpha {
					break
				}
			}
		}
		if len(batch) == 0 {
			return closestOf(), nil
		}
		*rounds++
		type result struct {
			from     Contact
			contacts []Contact
			err      error
		}
		results := make(chan result, len(batch))
		for _, c := range batch {
			shortlist[c.ID].queried = true
			go func(c Contact) {
				resp, err := n.call(ctx, c, Message{Type: MsgFindNode, From: n.from(), Target: target})
				results <- result{from: c, contacts: resp.Contacts, err: err}
			}(c)
		}
		for range batch {
			r := <-results
			if r.err != nil {
				// call handed the contact to the failure detector (or
				// evicted it outright); the lookup drops it either way.
				delete(shortlist, r.from.ID)
				continue
			}
			n.table.Update(r.from)
			for _, c := range r.contacts {
				if _, ok := shortlist[c.ID]; !ok {
					shortlist[c.ID] = &entry{c: c}
				}
				n.table.Update(c)
			}
		}
	}
}

// Locate returns the peer in charge of an application key (the closest
// peer to the key's identifier), implementing the DHT interface's
// locate(k).
func (n *Node) Locate(key string) (Contact, error) {
	return n.LocateContext(context.Background(), key)
}

// LocateContext is Locate under a caller-controlled deadline.
func (n *Node) LocateContext(ctx context.Context, key string) (Contact, error) {
	cs, err := n.LookupContext(ctx, KeyID(key))
	if err != nil {
		return Contact{}, err
	}
	if len(cs) == 0 {
		return Contact{}, fmt.Errorf("dht: locate %q: no peers known", key)
	}
	return cs[0], nil
}

// Owners returns the Replication closest peers to the key — the
// replica set reads and writes address.
func (n *Node) Owners(key string) ([]Contact, error) {
	return n.OwnersContext(context.Background(), key)
}

// OwnersContext is Owners under a caller-controlled deadline.
func (n *Node) OwnersContext(ctx context.Context, key string) ([]Contact, error) {
	cs, err := n.LookupContext(ctx, KeyID(key))
	if err != nil {
		return nil, err
	}
	if len(cs) == 0 {
		return nil, fmt.Errorf("dht: no peers for key %q", key)
	}
	if len(cs) > n.cfg.Replication {
		cs = cs[:n.cfg.Replication]
	}
	return cs, nil
}

// Append adds postings to the key's list on its owner peers — the
// linear-cost indexing operation of Section 3.
func (n *Node) Append(key string, ps postings.List) error {
	return n.AppendContext(context.Background(), key, ps)
}

// AppendContext is Append under a caller-controlled deadline. An
// acknowledged append reached every replica owner; store-side
// deduplication makes the retried delivery idempotent.
func (n *Node) AppendContext(ctx context.Context, key string, ps postings.List) error {
	start := time.Now()
	defer func() { n.collector.Observe(metrics.OpAppend, time.Since(start)) }()
	ctx, sp := trace.StartSpan(ctx, "dht:append")
	if sp != nil {
		sp.SetAttr("key", key)
		sp.SetInt("postings", int64(len(ps)))
		defer sp.Finish()
	}
	owners, err := n.OwnersContext(ctx, key)
	if err != nil {
		return err
	}
	for _, o := range owners {
		if o.ID == n.self.ID {
			if err := n.store.Append(key, ps); err != nil {
				return err
			}
			continue
		}
		sorted := ps.Clone()
		sorted.Sort()
		if _, err := n.call(ctx, o, Message{Type: MsgAppend, From: n.from(), Key: key, Postings: sorted}); err != nil {
			return fmt.Errorf("dht: append %q to %s: %w", key, o.Addr, err)
		}
	}
	return nil
}

// AppendAt adds postings to a key's list on one specific peer,
// bypassing the owner lookup. The DPP layer uses it for overflow
// blocks, whose placement the root block records explicitly (the
// paper's pointer function); DHT replication deliberately does not
// apply to such blocks (Section 4.2 notes the DHT's fixed replication
// does not fit the DPP's needs).
func (n *Node) AppendAt(to Contact, key string, ps postings.List) error {
	return n.AppendAtContext(context.Background(), to, key, ps)
}

// AppendAtContext is AppendAt under a caller-controlled deadline.
func (n *Node) AppendAtContext(ctx context.Context, to Contact, key string, ps postings.List) error {
	if to.ID == n.self.ID {
		return n.store.Append(key, ps)
	}
	sorted := ps.Clone()
	sorted.Sort()
	_, err := n.call(ctx, to, Message{Type: MsgAppend, From: n.from(), Key: key, Postings: sorted})
	return err
}

// Get retrieves the key's full posting list — the blocking get of the
// standard DHT API.
func (n *Node) Get(key string) (postings.List, error) {
	return n.GetContext(context.Background(), key)
}

// GetContext is Get under a caller-controlled deadline. With
// Replication > 1 every reachable owner is consulted and the copies
// are merged, so the read survives the loss of all but one replica
// (and heals divergent copies at the reader).
func (n *Node) GetContext(ctx context.Context, key string) (postings.List, error) {
	owners, err := n.OwnersContext(ctx, key)
	if err != nil {
		return nil, err
	}
	var (
		merged   postings.List
		firstErr error
		okCount  int
	)
	for _, o := range owners {
		var l postings.List
		if o.ID == n.self.ID {
			l, err = n.localGet(key)
		} else {
			var resp Message
			resp, err = n.call(ctx, o, Message{Type: MsgGet, From: n.from(), Key: key})
			l = resp.Postings
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		okCount++
		if okCount == 1 {
			merged = l
		} else {
			merged = postings.MergeUnique(merged, l)
		}
	}
	if okCount == 0 {
		return nil, firstErr
	}
	return merged, nil
}

// GetStream retrieves the key's posting list as a pipelined stream —
// the paper's pipelined get. The returned stream delivers postings in
// canonical order while the transfer is still in progress.
func (n *Node) GetStream(key string) (postings.Stream, error) {
	return n.GetStreamContext(context.Background(), key)
}

// GetStreamContext is GetStream under a caller-controlled deadline.
// With Replication > 1 the owners are ranked by a digest exchange
// (most postings first) and the stream fails over to the next replica
// when opening fails, so a dead or stale primary does not break the
// pipelined read.
func (n *Node) GetStreamContext(ctx context.Context, key string) (postings.Stream, error) {
	owners, err := n.OwnersContext(ctx, key)
	if err != nil {
		return nil, err
	}
	if len(owners) > 1 {
		owners = n.rankOwners(ctx, owners, key)
	}
	var firstErr error
	for _, o := range owners {
		s, err := n.StreamFromContext(ctx, o, Message{Type: MsgGetStream, From: n.from(), Key: key})
		if err == nil {
			return s, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// rankOwners orders a replica set for reading: reachable owners first,
// by descending posting count (the freshest copy wins), preserving
// XOR-closeness order among ties.
func (n *Node) rankOwners(ctx context.Context, owners []Contact, key string) []Contact {
	type ranked struct {
		c     Contact
		count int
		ok    bool
	}
	rs := make([]ranked, len(owners))
	for i, o := range owners {
		rs[i] = ranked{c: o}
		if o.ID == n.self.ID {
			if c, err := n.store.Count(key); err == nil {
				rs[i].count, rs[i].ok = c, true
			}
			continue
		}
		if c, err := n.digestOf(ctx, o, key); err == nil {
			rs[i].count, rs[i].ok = c, true
		}
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].ok != rs[j].ok {
			return rs[i].ok
		}
		return rs[i].count > rs[j].count
	})
	out := make([]Contact, len(rs))
	for i, r := range rs {
		out[i] = r.c
	}
	return out
}

// digestOf asks one peer how many postings it holds for key.
func (n *Node) digestOf(ctx context.Context, to Contact, key string) (int, error) {
	resp, err := n.call(ctx, to, Message{Type: MsgDigest, From: n.from(), Key: key})
	if err != nil {
		return 0, err
	}
	v, nn := binary.Uvarint(resp.Blob)
	if nn <= 0 {
		return 0, fmt.Errorf("dht: digest of %q from %s: bad count", key, to.Addr)
	}
	return int(v), nil
}

// StreamFromContext opens a posting stream for an arbitrary request
// against a specific peer, under a caller-controlled deadline.
func (n *Node) StreamFromContext(ctx context.Context, owner Contact, req Message) (postings.Stream, error) {
	if owner.ID == n.self.ID {
		// Local fast path: serve from the store through a pipe so the
		// consumer sees the same streaming behaviour (the trace ids are
		// stamped so HandleStream attributes the work as usual).
		req.TraceID, req.SpanID = trace.ID(ctx)
		pipe := postings.NewPipe(n.cfg.ChunkSize * 2)
		go func() {
			err := n.HandleStream(n.self, req, func(chunk Message) error {
				if !pipe.Send(chunk.Postings) {
					return fmt.Errorf("dht: local stream consumer closed")
				}
				return nil
			})
			pipe.Close(err)
		}()
		return pipe, nil
	}
	ms, err := n.openStreamPolicy(ctx, owner, req, n.cfg.Retry)
	if err != nil {
		return nil, err
	}
	pipe := postings.NewPipe(n.cfg.ChunkSize * 2)
	go func() {
		for {
			m, err := ms.Recv()
			if errors.Is(err, io.EOF) {
				pipe.Close(nil)
				return
			}
			if err != nil {
				pipe.Close(err)
				return
			}
			n.noteGauge(owner.Addr, m)
			if !pipe.Send(m.Postings) {
				ms.Close()
				return
			}
		}
	}()
	return pipe, nil
}

// Delete removes one posting from the key's list on all owners.
func (n *Node) Delete(key string, p sid.Posting) error {
	return n.DeleteContext(context.Background(), key, p)
}

// DeleteContext is Delete under a caller-controlled deadline.
func (n *Node) DeleteContext(ctx context.Context, key string, p sid.Posting) error {
	owners, err := n.OwnersContext(ctx, key)
	if err != nil {
		return err
	}
	for _, o := range owners {
		if o.ID == n.self.ID {
			if err := n.store.Delete(key, p); err != nil {
				return err
			}
			continue
		}
		if _, err := n.call(ctx, o, Message{Type: MsgDelete, From: n.from(), Key: key, Postings: postings.List{p}}); err != nil {
			return err
		}
	}
	return nil
}

// DeleteAt removes one posting from a key's list on a specific peer
// (the DPP's block-targeted deletion).
func (n *Node) DeleteAt(to Contact, key string, p sid.Posting) error {
	return n.DeleteAtContext(context.Background(), to, key, p)
}

// DeleteAtContext is DeleteAt under a caller-controlled deadline.
func (n *Node) DeleteAtContext(ctx context.Context, to Contact, key string, p sid.Posting) error {
	if to.ID == n.self.ID {
		return n.store.Delete(key, p)
	}
	_, err := n.call(ctx, to, Message{Type: MsgDelete, From: n.from(), Key: key, Postings: postings.List{p}})
	return err
}

// DeleteKey removes the key's entire list on all owners.
func (n *Node) DeleteKey(key string) error {
	return n.DeleteKeyContext(context.Background(), key)
}

// DeleteKeyContext is DeleteKey under a caller-controlled deadline.
func (n *Node) DeleteKeyContext(ctx context.Context, key string) error {
	owners, err := n.OwnersContext(ctx, key)
	if err != nil {
		return err
	}
	for _, o := range owners {
		if o.ID == n.self.ID {
			if err := n.store.DeleteTerm(key); err != nil {
				return err
			}
			continue
		}
		if _, err := n.call(ctx, o, Message{Type: MsgDeleteKey, From: n.from(), Key: key}); err != nil {
			return err
		}
	}
	return nil
}

// CallProc invokes an application procedure on the owner of key.
func (n *Node) CallProc(key, proc string, blob []byte) ([]byte, error) {
	return n.CallProcContext(context.Background(), key, proc, blob)
}

// CallProcContext is CallProc under a caller-controlled deadline.
func (n *Node) CallProcContext(ctx context.Context, key, proc string, blob []byte) ([]byte, error) {
	owner, err := n.LocateContext(ctx, key)
	if err != nil {
		return nil, err
	}
	return n.CallProcOnContext(ctx, owner, key, proc, blob)
}

// CallProcOwners invokes an application procedure on every replica
// owner of key (replicated writes such as directory entries). It
// succeeds when at least one owner accepted the call, returning the
// first successful reply; unreachable owners are healed later by the
// read path trying all replicas.
func (n *Node) CallProcOwners(key, proc string, blob []byte) ([]byte, error) {
	return n.CallProcOwnersContext(context.Background(), key, proc, blob)
}

// CallProcOwnersContext is CallProcOwners under a caller-controlled
// deadline.
func (n *Node) CallProcOwnersContext(ctx context.Context, key, proc string, blob []byte) ([]byte, error) {
	owners, err := n.OwnersContext(ctx, key)
	if err != nil {
		return nil, err
	}
	var (
		out      []byte
		okCount  int
		firstErr error
	)
	for _, o := range owners {
		b, err := n.CallProcOnContext(ctx, o, key, proc, blob)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if okCount == 0 {
			out = b
		}
		okCount++
	}
	if okCount == 0 {
		return nil, firstErr
	}
	return out, nil
}

// CallProcAnyContext invokes an application procedure on the replica
// owners of key in turn, returning the first success (replicated
// reads), under a caller-controlled deadline.
func (n *Node) CallProcAnyContext(ctx context.Context, key, proc string, blob []byte) ([]byte, error) {
	owners, err := n.OwnersContext(ctx, key)
	if err != nil {
		return nil, err
	}
	var firstErr error
	for _, o := range owners {
		b, err := n.CallProcOnContext(ctx, o, key, proc, blob)
		if err == nil {
			return b, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// CallProcOn invokes an application procedure on a specific peer.
func (n *Node) CallProcOn(to Contact, key, proc string, blob []byte) ([]byte, error) {
	return n.CallProcOnContext(context.Background(), to, key, proc, blob)
}

// CallProcOnContext is CallProcOn under a caller-controlled deadline.
func (n *Node) CallProcOnContext(ctx context.Context, to Contact, key, proc string, blob []byte) ([]byte, error) {
	if to.ID == n.self.ID {
		h := n.lookupProc(proc)
		if h == nil {
			return nil, fmt.Errorf("dht: unknown procedure %q", proc)
		}
		// Local fast path: the handler inherits the caller's context
		// directly (deadline and trace span included).
		return h(ctx, n.self, key, blob)
	}
	resp, err := n.call(ctx, to, Message{Type: MsgApp, From: n.from(), Key: key, Proc: proc, Blob: blob})
	if err != nil {
		return nil, err
	}
	return resp.Blob, nil
}

// OpenProcStream opens a posting stream served by a streaming
// application procedure on a specific peer.
func (n *Node) OpenProcStream(to Contact, key, proc string, blob []byte) (postings.Stream, error) {
	return n.OpenProcStreamContext(context.Background(), to, key, proc, blob)
}

// OpenProcStreamContext is OpenProcStream under a caller-controlled
// deadline.
func (n *Node) OpenProcStreamContext(ctx context.Context, to Contact, key, proc string, blob []byte) (postings.Stream, error) {
	return n.StreamFromContext(ctx, to, Message{Type: MsgApp, From: n.from(), Key: key, Proc: proc, Blob: blob})
}

// replica repair ----------------------------------------------------

// RepairOnce runs one repair pass: for every key held locally, check
// that each of the key's Replication owners holds at least as many
// postings, and re-push the local copy where one does not. It returns
// the number of copies pushed. Because store appends are idempotent,
// over-pushing is safe; because digests are counts, the pass heals the
// churn case (an owner that lost or never had the key) cheaply without
// shipping lists around.
func (n *Node) RepairOnce(ctx context.Context) (int, error) {
	if n.cfg.Client {
		return 0, nil
	}
	terms, err := n.store.Terms()
	if err != nil {
		return 0, err
	}
	pushed := 0
	var firstErr error
	for _, term := range terms {
		if err := ctx.Err(); err != nil {
			return pushed, err
		}
		local, err := n.store.Count(term)
		if err != nil || local == 0 {
			continue
		}
		owners, err := n.OwnersContext(ctx, term)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, o := range owners {
			if o.ID == n.self.ID {
				continue
			}
			remote, err := n.digestOf(ctx, o, term)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if remote >= local {
				continue
			}
			list, err := n.store.Get(term)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				break
			}
			if _, err := n.call(ctx, o, Message{Type: MsgRepair, From: n.from(), Key: term, Postings: list}); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			pushed++
			n.collector.CountEvent(metrics.EventRepair)
			n.robust("repair-push")
		}
	}
	return pushed, firstErr
}

// ResyncOnce is the pull direction of replica repair: for every key
// held locally, ask the key's other owners for their digests and, when
// a remote copy has more postings, fetch it and merge it into the local
// store. A peer restarting from its data directory runs it after
// rejoining to pick up appends made to its keys while it was down; the
// push loop (RepairOnce, run by the peers that stayed up) covers keys
// the restarted peer has no local copy of at all. Returns the number of
// keys healed. Merging is idempotent (postings are set members), so a
// concurrent push of the same list is harmless.
func (n *Node) ResyncOnce(ctx context.Context) (int, error) {
	if n.cfg.Client {
		return 0, nil
	}
	terms, err := n.store.Terms()
	if err != nil {
		return 0, err
	}
	healed := 0
	var firstErr error
	for _, term := range terms {
		if err := ctx.Err(); err != nil {
			return healed, err
		}
		local, err := n.store.Count(term)
		if err != nil {
			continue
		}
		owners, err := n.OwnersContext(ctx, term)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		grew := false
		for _, o := range owners {
			if o.ID == n.self.ID {
				continue
			}
			remote, err := n.digestOf(ctx, o, term)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if remote <= local {
				continue
			}
			resp, err := n.call(ctx, o, Message{Type: MsgGet, From: n.from(), Key: term})
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if err := n.store.Append(term, resp.Postings); err != nil {
				return healed, err
			}
			grew = true
			if c, err := n.store.Count(term); err == nil {
				local = c
			}
		}
		if grew {
			healed++
			n.collector.CountEvent(metrics.EventResync)
			n.robust("resync-pull")
		}
	}
	return healed, firstErr
}

// StartRepair launches the periodic repair loop (the republisher) and
// returns its stop function. Each pass runs under a deadline of one
// interval, so a stuck pass cannot pile up behind the next; pass
// spacing is jittered ±10% so a cluster started in lockstep does not
// repair in lockstep forever.
func (n *Node) StartRepair(interval time.Duration) (stop func()) {
	return n.startLoop(interval, func(ctx context.Context) {
		n.RepairOnce(ctx)
	})
}

func (n *Node) lookupProc(proc string) ProcHandler {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.procs[proc]
}

func (n *Node) lookupStreamProc(proc string) StreamProcHandler {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.streamProcs[proc]
}

// serverContext opens a server-side span for a request that arrived
// with trace ids and returns a context carrying it. With no tracer or
// an untraced request it returns the background context and nil.
func (n *Node) serverContext(req Message) (context.Context, *trace.Span) {
	ctx := context.Background()
	if req.TraceID == 0 {
		return ctx, nil
	}
	sp := n.Tracer().JoinRemote(req.TraceID, req.SpanID, "serve:"+req.Type.String())
	if sp == nil {
		return ctx, nil
	}
	sp.SetAttr("at", n.self.Addr)
	if req.Proc != "" {
		sp.SetAttr("proc", req.Proc)
	}
	return trace.ContextWithSpan(ctx, sp), sp
}

// HandleCall implements Handler (the server side of the wire protocol).
// Every response leaves with the peer's load gauge stamped on it, so
// regular traffic doubles as replica-load advertisement.
func (n *Node) HandleCall(from Contact, req Message) Message {
	return n.stampGauge(n.handleCall(from, req))
}

func (n *Node) handleCall(from Contact, req Message) Message {
	if !from.ID.IsZero() {
		n.table.Update(from)
	}
	ctx, sp := n.serverContext(req)
	defer sp.Finish()
	fail := func(err error) Message {
		return Message{Type: MsgError, From: n.self, Err: err.Error()}
	}
	switch req.Type {
	case MsgPing:
		return Message{Type: MsgPong, From: n.self}
	case MsgFindNode:
		return Message{Type: MsgNodes, From: n.self, Contacts: n.table.Closest(req.Target, n.cfg.K)}
	case MsgAppend, MsgRepair:
		if err := n.store.Append(req.Key, req.Postings); err != nil {
			return fail(err)
		}
		return Message{Type: MsgAck, From: n.self}
	case MsgGet:
		if err := n.admitRead(rpcOp(req.Type)); err != nil {
			return fail(err)
		}
		l, err := n.localGet(req.Key)
		if err != nil {
			return fail(err)
		}
		return Message{Type: MsgAck, From: n.self, Postings: l}
	case MsgDigest:
		view, err := n.store.Snapshot()
		if err != nil {
			return fail(err)
		}
		c, err := view.Count(req.Key)
		view.Close()
		if err != nil {
			return fail(err)
		}
		return Message{Type: MsgDigestAck, From: n.self, Blob: binary.AppendUvarint(nil, uint64(c))}
	case MsgTerms:
		// One snapshot across the whole enumeration: the terms and their
		// counts describe a single committed generation even while a
		// bulk publish rewrites the index underneath.
		view, err := n.store.Snapshot()
		if err != nil {
			return fail(err)
		}
		defer view.Close()
		terms, err := view.Terms()
		if err != nil {
			return fail(err)
		}
		tcs := make([]TermCount, 0, len(terms))
		for _, term := range terms {
			c, err := view.Count(term)
			if err != nil || c == 0 {
				continue
			}
			tcs = append(tcs, TermCount{Term: term, Count: c})
		}
		return Message{Type: MsgTermsAck, From: n.self, Blob: encodeTermCounts(tcs)}
	case MsgDelete:
		for _, p := range req.Postings {
			if err := n.store.Delete(req.Key, p); err != nil {
				return fail(err)
			}
		}
		return Message{Type: MsgAck, From: n.self}
	case MsgDeleteKey:
		if err := n.store.DeleteTerm(req.Key); err != nil {
			return fail(err)
		}
		return Message{Type: MsgAck, From: n.self}
	case MsgApp:
		h := n.lookupProc(req.Proc)
		if h == nil {
			return fail(fmt.Errorf("unknown procedure %q", req.Proc))
		}
		blob, err := h(ctx, from, req.Key, req.Blob)
		if err != nil {
			return fail(err)
		}
		return Message{Type: MsgAppReply, From: n.self, Proc: req.Proc, Blob: blob}
	}
	return fail(fmt.Errorf("unexpected message type %s", req.Type))
}

// HandleStream implements Handler for pipelined transfers. Outgoing
// chunks carry the peer's load gauge like call responses do, and the
// posting-read streams pass the admission gate: a shed stream fails
// before any store work, and the rejection reaches the consumer as a
// stream error it answers by failing over to another replica.
func (n *Node) HandleStream(from Contact, req Message, send func(Message) error) error {
	if !from.ID.IsZero() {
		n.table.Update(from)
	}
	ctx, sp := n.serverContext(req)
	defer sp.Finish()
	stamped := func(m Message) error { return send(n.stampGauge(m)) }
	switch req.Type {
	case MsgGetStream:
		if err := n.admitRead(rpcOp(req.Type)); err != nil {
			return err
		}
		return n.streamList(req.Key, stamped)
	case MsgGetBatch:
		if err := n.admitRead(rpcOp(req.Type)); err != nil {
			return err
		}
		return n.streamBatch(req, stamped)
	case MsgApp:
		h := n.lookupStreamProc(req.Proc)
		if h == nil {
			return fmt.Errorf("unknown stream procedure %q", req.Proc)
		}
		if strings.HasPrefix(req.Proc, "stream:") {
			if err := n.admitRead(rpcOp(req.Type)); err != nil {
				return err
			}
		}
		return h(ctx, from, req.Key, req.Blob, func(batch postings.List) error {
			return stamped(Message{Type: MsgChunk, From: n.self, Postings: batch})
		})
	}
	return fmt.Errorf("unexpected stream request %s", req.Type)
}

// streamList scans a snapshot of the local store and ships the list in
// chunks: the stream delivers one committed generation end to end, even
// when publishes land mid-transfer.
func (n *Node) streamList(key string, send func(Message) error) error {
	view, err := n.store.Snapshot()
	if err != nil {
		return err
	}
	defer view.Close()
	batch := make(postings.List, 0, n.cfg.ChunkSize)
	var sendErr error
	err = view.Scan(key, sid.MinPosting, func(p sid.Posting) bool {
		batch = append(batch, p)
		if len(batch) == n.cfg.ChunkSize {
			sendErr = send(Message{Type: MsgChunk, From: n.self, Postings: batch})
			batch = batch[:0]
			return sendErr == nil
		}
		return true
	})
	if err != nil {
		return err
	}
	if sendErr != nil {
		return sendErr
	}
	if len(batch) > 0 {
		return send(Message{Type: MsgChunk, From: n.self, Postings: batch})
	}
	return nil
}

// Close stops the maintenance loops and shuts the node's transport
// down.
func (n *Node) Close() error {
	n.stopMaintenance()
	return n.tr.Close()
}

func (n *Node) stopMaintenance() {
	n.repairMu.Lock()
	if n.stopRepair != nil {
		n.stopRepair()
		n.stopRepair = nil
	}
	if n.stopRefresh != nil {
		n.stopRefresh()
		n.stopRefresh = nil
	}
	n.repairMu.Unlock()
}
