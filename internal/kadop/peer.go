// Package kadop implements the KadoP peer itself: the publishing
// pipeline, the two-phase query processing of Section 2, and the
// Bloom-reducer query strategies of Section 5.3, on top of the dht,
// dpp, twigjoin and sbf substrates.
//
// A peer stores the XML documents it publishes, contributes a slice of
// the distributed Term index through its DHT node, and can submit
// queries. Query processing first runs an index query — a holistic twig
// join over the posting lists of the query's terms, fetched from their
// home peers (optionally via the DPP partitioning and optionally
// reduced by structural Bloom filters) — and then sends the query to
// the peers holding the candidate documents, where the final answers
// are computed.
package kadop

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kadop/internal/blockcache"
	"kadop/internal/dht"
	"kadop/internal/dpp"
	"kadop/internal/obs/querylog"
	"kadop/internal/obs/stats"
	"kadop/internal/pattern"
	"kadop/internal/postings"
	"kadop/internal/replicate"
	"kadop/internal/sid"
	"kadop/internal/store"
	"kadop/internal/trace"
	"kadop/internal/xmltree"
)

// Proc names registered by every KadoP peer.
const (
	procDirPut   = "index:dir:put"
	procDirGet   = "dir:get"
	procAnswer   = "query:answer"
	procGone     = "query:gone"
	procPush     = "stream:push" // a unary call: "stream:" only classes its bytes as posting traffic
	procCount    = "term:count"
	procABReduce = "filter:abreduce"
	procDBReduce = "filter:dbreduce"
	procHybridAB = "filter:hybrid-ab"
	procHybridDB = "filter:hybrid-db"
)

// Config configures a KadoP peer.
type Config struct {
	// UseDPP enables the distributed posting partitioning of Section 4.
	UseDPP bool
	// DPP holds the partitioning options when UseDPP is set.
	DPP dpp.Options
	// CacheBytes, when positive, gives this peer a posting-block cache
	// of that capacity for its DPP fetches: repeated and overlapping
	// queries reuse fetched blocks instead of transferring them again,
	// concurrent fetches of one block coalesce, and generation-keyed
	// entries self-invalidate on append/delete. Zero disables caching.
	CacheBytes int64
	// Parallel is the DPP fetch parallelism K (default 4).
	Parallel int
	// Extract controls term extraction at publishing time.
	Extract xmltree.ExtractOptions
	// ABBasicFP and DBBasicFP are the basic false-positive rates of the
	// structural Bloom filters (defaults 0.20 and 0.01, the paper's
	// choices: AB filters tolerate a loose basic filter).
	ABBasicFP float64
	DBBasicFP float64
	// DHT configures the overlay node (replication factor, retry
	// policy, repair cadence) for the constructors that build the node
	// themselves — NewSimCluster, NewTCPPeer and the CLIs. The zero
	// value is the seed behaviour: one copy of every key, one RPC
	// attempt. Constructors taking an existing *dht.Node ignore it.
	DHT dht.Config
	// QueryLog, when set, receives one structured JSONL record per
	// (sampled) query: pattern, phase latencies, bytes moved, cache
	// hits, hops and retries. kadop-query -log wires this up.
	QueryLog *querylog.Logger
	// DataDir, when set, makes the peer durable: the index B+-tree, the
	// DPP root blocks and the peer-state journal (published raw XML,
	// directory entries) all live under this directory, and a peer
	// restarted from the same directory serves its documents and index
	// slice again without republishing. NewTCPPeer and the CLIs honour
	// it; constructors taking an existing *dht.Node persist the peer
	// state and DPP roots but leave the index store to the caller.
	DataDir string
	// Fsync selects the index WAL's fsync policy when DataDir is set
	// (default store.FsyncAlways; see store.FsyncPolicy for the
	// throughput/durability-window trade).
	Fsync store.FsyncPolicy
	// RepublishInterval, when positive, starts a background loop that
	// re-registers the peer's directory entries (its address and the Doc
	// entries of its published documents) roughly every interval, with
	// ±10% jitter. Directory entries live in other peers' volatile
	// stores, so under churn they need periodic republication the same
	// way postings need the repair loop. Zero (the default) disables the
	// loop.
	RepublishInterval time.Duration
	// Replicate configures the adaptive hot-term replication controller
	// (internal/replicate). The zero value keeps the seed behaviour: no
	// promotion, no advertisements. With Enabled set the peer builds a
	// controller; Interval > 0 additionally starts its background loop
	// (experiments with synthetic clocks leave it zero and drive Tick).
	Replicate replicate.Config
	// ShedRate, when positive, arms the admission gate on this peer's
	// read-serving path: sustained read admissions per second, with
	// ShedBurst (default max(ShedRate,1)) of headroom. Over-budget
	// reads answer the retryable overload error so clients fail over to
	// another replica instead of queueing here. Zero disables shedding.
	ShedRate  float64
	ShedBurst float64
	// SlowQuery, when positive, is the slow-query capture threshold:
	// any query at least this slow is written to the query log with its
	// full trace tree attached, bypassing the log's sampling — the tail
	// is exactly what sampling must not drop. Requires QueryLog for the
	// persistent record; the query's flight-ring entry and histogram
	// exemplar are recorded regardless.
	SlowQuery time.Duration
	// Batching configures write coalescing on the peer's index store:
	// index appends arriving concurrently (several publishers, or the
	// fan-out of one wide document) group into a single WAL commit, so
	// one fsync covers the whole batch instead of one per operation.
	// Honoured by the constructors that build the store themselves
	// (NewTCPPeer, the experiment clusters); constructors taking an
	// existing *dht.Node leave the store to the caller, who can wrap it
	// in store.NewCoalescer directly.
	Batching BatchingConfig
}

// BatchingConfig tunes the publish-path write coalescer
// (store.NewCoalescer). The zero value disables coalescing, the seed
// behaviour: one WAL transaction and one fsync per store operation.
type BatchingConfig struct {
	// Enabled wraps the index store in the coalescer.
	Enabled bool
	// MaxDelay, when positive, lets a batch leader linger that long
	// collecting more operations before flushing. Zero (the default)
	// flushes immediately — serial callers pay no added latency and
	// batches form naturally from whatever queued during the previous
	// flush.
	MaxDelay time.Duration
}

func (c Config) abFP() float64 {
	if c.ABBasicFP <= 0 {
		return 0.20
	}
	return c.ABBasicFP
}

func (c Config) dbFP() float64 {
	if c.DBBasicFP <= 0 {
		return 0.01
	}
	return c.DBBasicFP
}

// Peer is one KadoP peer.
type Peer struct {
	node *dht.Node
	id   sid.PeerID
	cfg  Config
	dpp  *dpp.Manager

	mu       sync.Mutex
	docs     map[sid.DocID]localDoc
	uris     map[sid.DocID]string
	docTypes map[sid.DocID]string
	nextDoc  sid.DocID
	dir      map[string][]byte // directory entries this peer is home for

	sessMu sync.Mutex
	sess   map[string]chan pushMsg  // open query sessions at this peer
	hybrid map[string]postings.List // Bloom Reducer intermediate lists

	persist    *statePersist // nil unless Config.DataDir is set
	ownedStore io.Closer     // index store closed by Close (NewTCPPeer)

	stats *stats.Registry // per-term cardinalities + learned selectivities

	stopRepub func()                // stops the republish loop; nil when disabled
	ctrl      *replicate.Controller // adaptive replication; nil when disabled
}

// NewPeer creates a KadoP peer with internal identifier id on an
// existing DHT node, registering all its procedures. With
// Config.DataDir set, the peer-state journal and the DPP root state are
// reloaded from (and persisted under) that directory, so documents
// published through PublishXML and directory entries survive a restart.
func NewPeer(node *dht.Node, id sid.PeerID, cfg Config) (*Peer, error) {
	p := &Peer{
		node:     node,
		id:       id,
		cfg:      cfg,
		docs:     map[sid.DocID]localDoc{},
		uris:     map[sid.DocID]string{},
		docTypes: map[sid.DocID]string{},
		dir:      map[string][]byte{},
		sess:     map[string]chan pushMsg{},
		hybrid:   map[string]postings.List{},
		stats:    stats.NewRegistry(),
	}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("kadop: data dir: %w", err)
		}
		sp, recs, err := openStatePersist(filepath.Join(cfg.DataDir, "state.jsonl"))
		if err != nil {
			return nil, err
		}
		p.persist = sp
		if err := p.replayState(recs); err != nil {
			sp.close()
			return nil, err
		}
		if err := p.stats.Load(filepath.Join(cfg.DataDir, "stats.json")); err != nil {
			sp.close()
			return nil, err
		}
	}
	if cfg.ShedRate > 0 {
		node.SetShedGate(replicate.NewGate(cfg.ShedRate, cfg.ShedBurst, cfg.Replicate.Now))
	}
	if cfg.Replicate.Enabled {
		p.ctrl = replicate.NewController(node, cfg.Replicate)
		p.ctrl.Start() // no-op unless Interval > 0
	}
	if cfg.UseDPP {
		if cfg.DPP.Now == nil {
			cfg.DPP.Now = cfg.Replicate.Now // one synthetic clock end to end
		}
		if cfg.DPP.Seed == 0 {
			cfg.DPP.Seed = cfg.DHT.Seed
		}
		if cfg.CacheBytes > 0 && cfg.DPP.Cache == nil {
			cfg.DPP.Cache = blockcache.New(blockcache.Options{MaxBytes: cfg.CacheBytes})
			cfg.DPP.Cache.SetCollector(node.Metrics())
		}
		if cfg.DataDir != "" && cfg.DPP.PersistPath == "" {
			cfg.DPP.PersistPath = filepath.Join(cfg.DataDir, "dpp.json")
		}
		mgr, err := dpp.NewManager(node, cfg.DPP)
		if err != nil {
			p.persist.close()
			return nil, err
		}
		p.dpp = mgr
	}
	node.Handle(procDirPut, p.handleDirPut)
	node.Handle(procDirGet, p.handleDirGet)
	node.Handle(procAnswer, p.handleAnswer)
	node.Handle(procGone, p.handleGone)
	node.Handle(procCount, p.handleCount)
	node.Handle(procPush, p.handlePush)
	node.Handle(procABReduce, p.reduceStep(procABReduce, true, false))
	node.Handle(procDBReduce, p.reduceStep(procDBReduce, false, false))
	node.Handle(procHybridAB, p.reduceStep(procHybridAB, true, true))
	node.Handle(procHybridDB, p.reduceStep(procHybridDB, false, false))
	if cfg.RepublishInterval > 0 {
		p.stopRepub = p.startRepublish(cfg.RepublishInterval)
	}
	return p, nil
}

// startRepublish runs Reannounce roughly every interval (±10% seeded
// jitter) until the returned stop function is called.
func (p *Peer) startRepublish(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		rng := rand.New(rand.NewSource(p.cfg.DHT.Seed + int64(p.id) + 0x4e90))
		for {
			jitter := time.Duration((rng.Float64()*0.2 - 0.1) * float64(interval))
			t := time.NewTimer(interval + jitter)
			select {
			case <-done:
				t.Stop()
				return
			case <-t.C:
			}
			p.Reannounce()
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// replayState rebuilds the in-memory maps from the journal. Records
// replay in order, so a later record for the same document id or
// directory key wins — the same last-writer-wins the maps had live.
func (p *Peer) replayState(recs []stateRecord) error {
	for _, rec := range recs {
		switch rec.Kind {
		case "doc":
			doc, err := xmltree.ParseBytes(rec.XML)
			if err != nil {
				return fmt.Errorf("kadop: replay doc %d (%s): %w", rec.ID, rec.URI, err)
			}
			id := sid.DocID(rec.ID)
			p.docs[id] = newLocalDoc(doc)
			p.uris[id] = rec.URI
			if rec.Dtype != "" {
				p.docTypes[id] = rec.Dtype
			}
			if id >= p.nextDoc {
				p.nextDoc = id + 1
			}
		case "undoc":
			id := sid.DocID(rec.ID)
			delete(p.docs, id)
			delete(p.uris, id)
			delete(p.docTypes, id)
		case "dir":
			p.dir[rec.Key] = append([]byte(nil), rec.Blob...)
		default:
			return fmt.Errorf("kadop: replay: unknown record kind %q", rec.Kind)
		}
	}
	return nil
}

// AttachStore hands the peer ownership of the index store backing its
// node; Close will close it after the node stops serving. The facade
// constructors that build the store themselves (NewTCPPeer) use this.
func (p *Peer) AttachStore(c io.Closer) { p.ownedStore = c }

// Close shuts the peer down: the DHT node stops serving, then the
// index store flushes and closes (checkpointing its WAL), then the
// peer-state journal closes. A durable peer can be restarted from its
// DataDir afterwards.
func (p *Peer) Close() error {
	if p.stopRepub != nil {
		p.stopRepub()
	}
	p.ctrl.Stop()
	var err error
	if p.cfg.DataDir != "" {
		err = p.stats.Save(filepath.Join(p.cfg.DataDir, "stats.json"))
	}
	if cerr := p.node.Close(); err == nil {
		err = cerr
	}
	if p.ownedStore != nil {
		if cerr := p.ownedStore.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := p.persist.close(); err == nil {
		err = cerr
	}
	return err
}

// Leave departs the overlay gracefully: the peer's index slice is
// handed to the keys' remaining owners (dht.Node.Leave), then the peer
// shuts down as Close does. It returns the number of keys for which a
// complete remote replica was confirmed before departure. A durable
// peer keeps its local state and can rejoin later with Join + Resync;
// the handoff only ensures the overlay does not lose data while it is
// away.
func (p *Peer) Leave(ctx context.Context) (int, error) {
	if p.stopRepub != nil {
		p.stopRepub()
	}
	// Stop promoting before handing off: a controller pushing copies
	// mid-departure would race the handoff's ownership view.
	p.ctrl.Stop()
	p.handoffDir(ctx)
	moved, err := p.node.Leave(ctx)
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	return moved, err
}

// handoffDir pushes every directory entry this peer is home for to the
// entry's remaining owners before departure. Directory entries live in
// the peer-level side map (see dirPut), not the DHT store, so
// dht.Node.Leave does not cover them — without this step a graceful
// leave can drop the last replica of a peer-address or document entry
// and break phase-two resolution even though every index key survived.
// Best-effort per entry: an unreachable heir must not block departure.
func (p *Peer) handoffDir(ctx context.Context) int {
	p.mu.Lock()
	dir := make(map[string][]byte, len(p.dir))
	for k, v := range p.dir {
		dir[k] = v
	}
	p.mu.Unlock()
	self := p.node.Self().ID
	moved := 0
	for key, blob := range dir {
		cands, err := p.node.LookupContext(ctx, dht.KeyID(key))
		if err != nil {
			continue
		}
		// As in dht.Node.Leave, the departing peer is not an owner: the
		// entry's new home is the K-closest among the peers staying.
		heirs := cands[:0]
		for _, c := range cands {
			if c.ID != self {
				heirs = append(heirs, c)
			}
		}
		if r := p.cfg.DHT.Replication; r > 0 && len(heirs) > r {
			heirs = heirs[:r]
		}
		ok := false
		for _, h := range heirs {
			if _, err := p.node.CallProcOn(ctx, h, key, procDirPut, blob); err == nil {
				ok = true
			}
		}
		if ok {
			moved++
		}
	}
	return moved
}

// Resync pulls appends this peer's index slice missed while it was
// down: for every term held locally, replicas with more postings are
// fetched and merged (see dht.Node.ResyncOnce). Call it after Join when
// restarting from a data directory. The returned count is the number of
// terms that grew.
func (p *Peer) Resync(ctx context.Context) (int, error) {
	return p.node.ResyncOnce(ctx)
}

// Reannounce re-registers everything other peers resolve through the
// directory: the peer's own address and the Doc entries of its
// published documents. A restarted peer calls it (after Join) because
// its address entry may be stale and the home peers of its document
// keys may themselves have restarted without durable state.
func (p *Peer) Reannounce() error {
	if err := p.Announce(); err != nil {
		return err
	}
	p.mu.Lock()
	uris := make(map[sid.DocID]string, len(p.uris))
	for id, uri := range p.uris {
		uris[id] = uri
	}
	p.mu.Unlock()
	for id, uri := range uris {
		key := sid.DocKey{Peer: p.id, Doc: id}
		if err := p.dirPut(context.Background(), docKey(key), []byte(uri)); err != nil {
			return fmt.Errorf("kadop: reannounce doc %d: %w", id, err)
		}
	}
	return nil
}

// Announce registers the peer in the distributed Peer relation so
// other peers can resolve its internal identifier to a network address.
// Call it once the overlay is in place (after every peer that may be
// home for the entry has been created); publishing and phase-two query
// processing rely on it.
func (p *Peer) Announce() error {
	if err := p.dirPut(context.Background(), peerKey(p.id), []byte(p.node.Self().Addr)); err != nil {
		return fmt.Errorf("kadop: register peer %d: %w", p.id, err)
	}
	return nil
}

// Node returns the peer's DHT node.
func (p *Peer) Node() *dht.Node { return p.node }

// ID returns the peer's internal identifier.
func (p *Peer) ID() sid.PeerID { return p.id }

// DPP returns the peer's DPP manager (nil when disabled).
func (p *Peer) DPP() *dpp.Manager { return p.dpp }

// Replicator returns the peer's adaptive replication controller (nil
// when disabled); experiments with synthetic clocks drive its Tick.
func (p *Peer) Replicator() *replicate.Controller { return p.ctrl }

// Stats returns the peer's statistics registry: per-term cardinalities
// from its publish path and join selectivities learned from its
// completed queries. Served at /debug/stats and as kadop_stats_* on
// /metrics by the admin endpoint.
func (p *Peer) Stats() *stats.Registry { return p.stats }

// BlockCache returns the peer's posting-block cache, or nil when
// caching (or DPP) is disabled.
func (p *Peer) BlockCache() *blockcache.Cache {
	if p.dpp == nil {
		return nil
	}
	return p.dpp.Cache()
}

func peerKey(id sid.PeerID) string { return fmt.Sprintf("peer:%d", id) }
func docKey(k sid.DocKey) string   { return fmt.Sprintf("doc:%d:%d", k.Peer, k.Doc) }

// directory --------------------------------------------------------

// dirPut stores a small directory entry at the home peers of key. It
// implements the Peer and Doc relations of the data model. With DHT
// replication enabled the entry lands on every replica owner, so
// address resolution survives the loss of the primary.
func (p *Peer) dirPut(ctx context.Context, key string, blob []byte) error {
	_, err := p.node.CallProcOwners(ctx, key, procDirPut, blob)
	return err
}

// dirGet retrieves a directory entry from any reachable replica owner.
func (p *Peer) dirGet(ctx context.Context, key string) ([]byte, error) {
	return p.node.CallProcAny(ctx, key, procDirGet, nil)
}

func (p *Peer) handleDirPut(_ context.Context, _ dht.Contact, key string, blob []byte) ([]byte, error) {
	p.mu.Lock()
	p.dir[key] = append([]byte(nil), blob...)
	p.mu.Unlock()
	// Journal before acknowledging: a directory entry this peer is home
	// for must survive its restart.
	return nil, p.persist.append(stateRecord{Kind: "dir", Key: key, Blob: blob})
}

func (p *Peer) handleDirGet(_ context.Context, _ dht.Contact, key string, _ []byte) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	blob, ok := p.dir[key]
	if !ok {
		return nil, fmt.Errorf("kadop: no directory entry for %q", key)
	}
	return blob, nil
}

// contactOf resolves a peer's internal identifier to its DHT contact.
func (p *Peer) contactOf(ctx context.Context, id sid.PeerID) (dht.Contact, error) {
	if id == p.id {
		return p.node.Self(), nil
	}
	blob, err := p.dirGet(ctx, peerKey(id))
	if err != nil {
		return dht.Contact{}, fmt.Errorf("kadop: resolve peer %d: %w", id, err)
	}
	addr := string(blob)
	return dht.Contact{ID: dht.PeerIDFromSeed(addr), Addr: addr}, nil
}

// publishing --------------------------------------------------------

// Publish checks a parsed document into the collection: the document
// stays at this peer, its term postings are routed to their home peers
// (through the DPP when enabled), and its URI is registered in the Doc
// relation. It returns the document's global key.
func (p *Peer) Publish(doc *xmltree.Document, uri string) (sid.DocKey, error) {
	return p.PublishTyped(doc, uri, "")
}

// PublishTyped is Publish for a document with a user-specified type
// (Section 4.1). With the DPP enabled, the type is recorded in the
// conditions of the blocks receiving the document's postings, and
// type-constrained queries skip blocks of other types.
func (p *Peer) PublishTyped(doc *xmltree.Document, uri, dtype string) (sid.DocKey, error) {
	return firstKey(p.PublishBatch([]TreeDoc{{Doc: doc, URI: uri, Dtype: dtype}}))
}

// PublishAt indexes a document under an explicit document identifier.
// The Fundex machinery (Section 6) uses it to index a functional
// document under its functional id (p, h'(w)) instead of a sequential
// id; the document is retained locally so phase-two evaluation can
// serve answers from it.
func (p *Peer) PublishAt(id sid.DocID, doc *xmltree.Document, uri string) (sid.DocKey, error) {
	_, err := p.publish(context.Background(), []pubDoc{{doc: doc, uri: uri}}, &id)
	return sid.DocKey{Peer: p.id, Doc: id}, err
}

// PublishXML parses and publishes an XML document held as bytes. On a
// durable peer (Config.DataDir) the raw bytes are journaled before
// indexing, so a restarted peer serves the document again without a
// republish.
func (p *Peer) PublishXML(raw []byte, uri string) (sid.DocKey, error) {
	return p.PublishXMLTyped(raw, uri, "")
}

// PublishXMLTyped is PublishXML with a document type (Section 4.1).
func (p *Peer) PublishXMLTyped(raw []byte, uri, dtype string) (sid.DocKey, error) {
	return firstKey(p.PublishXMLBatch([]BatchDoc{{XML: raw, URI: uri, Dtype: dtype}}))
}

// firstKey adapts a one-document batch to the single-document
// signatures; the key is zero when the batch was rejected outright.
func firstKey(keys []sid.DocKey, err error) (sid.DocKey, error) {
	if len(keys) == 0 {
		return sid.DocKey{}, err
	}
	return keys[0], err
}

// BatchDoc is one document of a PublishXMLBatch call.
type BatchDoc struct {
	XML   []byte
	URI   string
	Dtype string // optional document type (Section 4.1)
}

// PublishXMLBatch publishes XML documents held as bytes in one call;
// PublishXML is the batch of one. Costs are per call, not per document:
//
//   - on a durable peer the call journals with a single write and a
//     single fsync (a crash mid-journal recovers a prefix of the batch,
//     each document whole);
//   - postings merge per term across the call, so a term appearing in
//     k documents costs one index append instead of k;
//   - the merged appends fan out concurrently, and with store batching
//     enabled (Config.Batching) the home peers group-commit them.
//
// All documents must parse; a parse failure rejects the call before
// any state changes. Index errors are reported after the documents are
// registered and journaled: they stay held locally for Reannounce and
// repair to finish the job.
func (p *Peer) PublishXMLBatch(docs []BatchDoc) ([]sid.DocKey, error) {
	pub := make([]pubDoc, len(docs))
	for i, d := range docs {
		doc, err := xmltree.ParseBytes(d.XML)
		if err != nil {
			return nil, fmt.Errorf("kadop: publish %q: %w", d.URI, err)
		}
		pub[i] = pubDoc{doc: doc, raw: d.XML, uri: d.URI, dtype: d.Dtype}
	}
	return p.publish(context.Background(), pub, nil)
}

// TreeDoc is one document of a PublishBatch call: already parsed, with
// its URI and optional type.
type TreeDoc struct {
	Doc   *xmltree.Document
	URI   string
	Dtype string
}

// PublishBatch is the parsed-document counterpart of PublishXMLBatch
// (Publish is its batch of one). There are no document bytes, so
// nothing is journaled.
func (p *Peer) PublishBatch(docs []TreeDoc) ([]sid.DocKey, error) {
	pub := make([]pubDoc, len(docs))
	for i, d := range docs {
		pub[i] = pubDoc{doc: d.Doc, uri: d.URI, dtype: d.Dtype}
	}
	return p.publish(context.Background(), pub, nil)
}

// localDoc is one document this peer published, with its layout for
// the answer phase: a published document never changes, so it is laid
// out once here rather than on every answer request.
type localDoc struct {
	tree   *xmltree.Document
	layout *pattern.Layout
}

func newLocalDoc(doc *xmltree.Document) localDoc {
	return localDoc{tree: doc, layout: pattern.NewLayout(doc)}
}

// pubDoc is one document entering the publish pipeline; raw is nil for
// a document handed over already parsed.
type pubDoc struct {
	doc        *xmltree.Document
	raw        []byte
	uri, dtype string
}

// termGroup is the postings one publish call contributes to one term,
// and the number of documents they come from.
type termGroup struct {
	list postings.List
	docs int64
}

// publishFanOut bounds the concurrent term appends of one publish call.
// Terms hash to independent home peers, so the appends are parallel
// work, and with a lingering coalescer at the home stores
// (BatchingConfig.MaxDelay) an append spends most of its life parked in
// a store's batch queue: many must be in flight to keep every store's
// collection window fed. The bound keeps one call from flooding the
// overlay.
const publishFanOut = 32

// publish is the publish pipeline of Section 3, the body of every
// Publish* method: register the documents, journal those that came as
// bytes, extract their postings merged per (type, term), append each
// group to the distributed index and record the URIs in the Doc
// relation. at, when set, is the caller-chosen id of the single
// document (PublishAt); otherwise ids are allocated in sequence.
func (p *Peer) publish(ctx context.Context, docs []pubDoc, at *sid.DocID) ([]sid.DocKey, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	keys := make([]sid.DocKey, len(docs))
	local := make([]localDoc, len(docs))
	for i, d := range docs {
		local[i] = newLocalDoc(d.doc)
	}
	var recs []stateRecord
	p.mu.Lock()
	for i, d := range docs {
		id := p.nextDoc
		if at != nil {
			id = *at
			if _, dup := p.docs[id]; dup {
				p.mu.Unlock()
				return nil, fmt.Errorf("kadop: document id %d already in use", id)
			}
		} else {
			p.nextDoc++
		}
		p.docs[id] = local[i]
		p.uris[id] = d.uri
		if d.dtype != "" {
			p.docTypes[id] = d.dtype
		}
		keys[i] = sid.DocKey{Peer: p.id, Doc: id}
		if d.raw != nil && p.persist != nil {
			recs = append(recs, stateRecord{Kind: "doc", ID: uint32(id), URI: d.uri, Dtype: d.dtype, XML: d.raw})
		}
	}
	p.mu.Unlock()
	// Journal before indexing (one write, one fsync): if the crash lands
	// mid-index, the restarted peer still holds the documents and
	// Reannounce + replica repair re-derive the rest; the reverse order
	// would leave index postings pointing at documents nobody can serve.
	if err := p.persist.append(recs...); err != nil {
		return keys, err
	}
	// Appends carry the document type into the DPP block conditions, so
	// only documents of the same type may share one append.
	groups := map[string]map[string]*termGroup{} // dtype -> term -> group
	for i, d := range docs {
		byTerm := groups[d.dtype]
		if byTerm == nil {
			byTerm = map[string]*termGroup{}
			groups[d.dtype] = byTerm
		}
		for _, tp := range xmltree.Extract(d.doc, p.id, keys[i].Doc, p.cfg.Extract) {
			k := tp.Term.Key()
			g := byTerm[k]
			if g == nil {
				g = &termGroup{}
				byTerm[k] = g
			}
			if len(g.list) == 0 || g.list[len(g.list)-1].Doc != keys[i].Doc {
				g.docs++
			}
			g.list = append(g.list, tp.Posting)
		}
	}
	for dtype, byTerm := range groups {
		if err := p.appendTerms(ctx, byTerm, dtype); err != nil {
			return keys, fmt.Errorf("kadop: publish: %w", err)
		}
	}
	for i, key := range keys {
		if err := p.dirPut(ctx, docKey(key), []byte(docs[i].uri)); err != nil {
			return keys, err
		}
	}
	return keys, nil
}

// appendTerms routes per-term posting groups of one document type into
// the distributed index, at most publishFanOut appends in flight, and
// feeds the publisher-side statistics. Lists are sorted in place. The
// first append error wins; remaining in-flight appends still drain.
func (p *Peer) appendTerms(ctx context.Context, byTerm map[string]*termGroup, dtype string) error {
	sem := make(chan struct{}, publishFanOut)
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for term, g := range byTerm {
		g.list.Sort()
		sem <- struct{}{}
		wg.Add(1)
		go func(term string, g *termGroup) {
			defer wg.Done()
			defer func() { <-sem }()
			var err error
			if p.dpp != nil {
				err = p.dpp.Append(ctx, term, g.list, dtype)
			} else {
				err = p.node.Append(ctx, term, g.list)
			}
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("index %q: %w", term, err)
				}
				errMu.Unlock()
				return
			}
			// Statistics update at the publisher: summing registries
			// across the cluster yields the exact global cardinalities.
			p.stats.ObservePublish(term, g.docs, int64(len(g.list)))
		}(term, g)
	}
	wg.Wait()
	return firstErr
}

// Unpublish removes a document from the collection: its postings are
// deleted from the index and the document is dropped. Modification is
// deletion followed by re-publication, as in the paper. The postings go
// first: a query without wildcards is answered from the index alone, so
// a posting left behind would name a document no longer published. An
// Unpublish that fails part-way leaves the document published, and
// calling it again finishes the job.
func (p *Peer) Unpublish(ctx context.Context, id sid.DocID) error {
	p.mu.Lock()
	doc := p.docs[id].tree
	p.mu.Unlock()
	if doc == nil {
		return fmt.Errorf("kadop: no local document %d", id)
	}
	tps := xmltree.Extract(doc, p.id, id, p.cfg.Extract)
	byTerm := map[string]postings.List{}
	for _, tp := range tps {
		byTerm[tp.Term.Key()] = append(byTerm[tp.Term.Key()], tp.Posting)
	}
	for term, list := range byTerm {
		var err error
		if p.dpp != nil {
			err = p.dpp.Delete(ctx, term, list)
		} else {
			err = p.node.Delete(ctx, term, list)
		}
		if err != nil {
			return err
		}
	}
	p.mu.Lock()
	delete(p.docs, id)
	delete(p.uris, id)
	delete(p.docTypes, id)
	p.mu.Unlock()
	return p.persist.append(stateRecord{Kind: "undoc", ID: uint32(id)})
}

// Document returns a locally stored document.
func (p *Peer) Document(id sid.DocID) (*xmltree.Document, string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.docs[id]
	return d.tree, p.uris[id], ok
}

// DocumentCount returns the number of locally published documents.
func (p *Peer) DocumentCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.docs)
}

// URI resolves any document key in the collection to its URI via the
// Doc relation.
func (p *Peer) URI(k sid.DocKey) (string, error) {
	blob, err := p.dirGet(context.Background(), docKey(k))
	if err != nil {
		return "", err
	}
	return string(blob), nil
}

// handleGone serves the confirmation of an index-answered query: given
// document keys, it returns those of them this peer does not publish.
func (p *Peer) handleGone(_ context.Context, _ dht.Contact, _ string, blob []byte) ([]byte, error) {
	keys, _, err := decodeDocKeys(blob, 0)
	if err != nil {
		return nil, err
	}
	gone := keys[:0]
	p.mu.Lock()
	for _, k := range keys {
		if _, ok := p.docs[k.Doc]; !ok || k.Peer != p.id {
			gone = append(gone, k)
		}
	}
	p.mu.Unlock()
	return encodeDocKeys(gone), nil
}

// handleAnswer serves phase-two query evaluation: given a query and a
// set of local document ids, it evaluates the full tree pattern on the
// stored documents and returns the answer tuples, grouped per document
// when the client asks for it (codec.go).
func (p *Peer) handleAnswer(ctx context.Context, _ dht.Contact, _ string, blob []byte) ([]byte, error) {
	queryText, pos, err := readStr(blob, 0)
	if err != nil {
		return nil, err
	}
	keys, pos, err := decodeDocKeys(blob, pos)
	if err != nil {
		return nil, err
	}
	format, _, _ := readUint(blob, pos) // absent from older clients: zero
	q, err := pattern.Parse(queryText)
	if err != nil {
		return nil, fmt.Errorf("kadop: answer: %w", err)
	}
	docs := make([]*pattern.Layout, len(keys)) // laid out at publish
	p.mu.Lock()
	for i, k := range keys {
		if k.Peer == p.id {
			docs[i] = p.docs[k.Doc].layout
		}
	}
	p.mu.Unlock()
	// Evaluation work is measured locally and shipped back in the
	// response trailer, so the querying peer's cost accumulator covers
	// phase two even though it runs here.
	var (
		m       = pattern.Compile(q)
		st      answerStats
		sids    []sid.SID
		groups  []answerGroup
		answers int
	)
	for i, doc := range docs {
		if doc == nil {
			continue
		}
		n := len(sids)
		var scanned int
		sids, scanned = m.MatchLayout(sids, doc)
		st.docsEvaluated++
		st.elementsScanned += int64(scanned)
		if len(sids) > n {
			g := answerGroup{doc: keys[i], tuples: (len(sids) - n) / m.Width()}
			groups = append(groups, g)
			answers += g.tuples
		}
	}
	if sp := trace.FromContext(ctx); sp != nil {
		// The joined server span shows where the evaluation effort went
		// when client and server share a tracer (sim clusters).
		sp.SetInt("docs-evaluated", st.docsEvaluated)
		sp.SetInt("elements-scanned", st.elementsScanned)
		sp.SetInt("matches", int64(answers))
	}
	return appendAnswerStats(encodeAnswers(format, groups, m.Width(), sids), st), nil
}
