// Package experiments implements the paper's evaluation: one runner per
// table and figure, each reproducing the corresponding workload,
// parameter sweep and measurement on a simulated KadoP deployment. The
// kadop-bench command and the repository's benchmarks are thin wrappers
// over this package.
//
// Scales default to laptop-sized runs (hundreds of documents, tens of
// peers); every runner accepts explicit scales, and the kadop-bench
// command exposes them as flags for paper-scale runs (hundreds of
// peers, hundreds of megabytes).
package experiments

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"kadop/internal/dht"
	"kadop/internal/kadop"
	"kadop/internal/pattern"
	"kadop/internal/sid"
	"kadop/internal/store"
	"kadop/internal/workload"
)

// StoreKind selects the local index store of the deployment's peers.
type StoreKind int

// Store kinds.
const (
	// MemStore is the in-memory store (default for simulations).
	MemStore StoreKind = iota
	// BTreeStore is the disk B+-tree (the re-engineered store of §3).
	BTreeStore
	// NaiveStore is the PAST-like gzip-blob baseline.
	NaiveStore
)

func (k StoreKind) String() string {
	switch k {
	case MemStore:
		return "mem"
	case BTreeStore:
		return "btree"
	case NaiveStore:
		return "naive"
	}
	return "?"
}

// ClusterOptions configure a simulated deployment.
type ClusterOptions struct {
	Peers int
	Cfg   kadop.Config
	// DHT configures the overlay nodes (replication, retry policy);
	// the zero value keeps the seed behaviour (single copy, one shot).
	DHT   dht.Config
	Link  dht.LinkModel
	Store StoreKind
	// Fsync is the WAL sync policy of BTreeStore peers (default
	// FsyncAlways, the durable setting).
	Fsync store.FsyncPolicy
	// Batched wraps each BTreeStore peer's store in the write
	// coalescer: concurrent index appends group-commit, one WAL
	// transaction and one fsync per batch.
	Batched bool
	// TempDir receives disk stores; empty means os.MkdirTemp.
	TempDir string
}

// Cluster is a simulated KadoP deployment.
type Cluster struct {
	Net   *dht.Network
	Nodes []*dht.Node
	Peers []*kadop.Peer
	dirs  []string
}

// NewCluster builds and bootstraps a deployment.
func NewCluster(o ClusterOptions) (*Cluster, error) {
	if o.Peers <= 0 {
		o.Peers = 8
	}
	c := &Cluster{Net: dht.NewNetwork()}
	c.Net.SetModel(o.Link)
	for i := 0; i < o.Peers; i++ {
		st, err := c.newStore(o, i)
		if err != nil {
			return nil, err
		}
		nd, err := dht.NewNode(c.Net.NewEndpoint(), st, o.DHT)
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, nd)
	}
	for i := 1; i < o.Peers; i++ {
		if err := c.Nodes[i].Bootstrap(c.Nodes[0].Self()); err != nil {
			return nil, fmt.Errorf("experiments: bootstrap peer %d: %w", i, err)
		}
	}
	for _, nd := range c.Nodes {
		if _, err := nd.Lookup(nd.Self().ID); err != nil {
			return nil, err
		}
	}
	for i, nd := range c.Nodes {
		p, err := kadop.NewPeer(nd, sid.PeerID(i+1), o.Cfg)
		if err != nil {
			return nil, err
		}
		c.Peers = append(c.Peers, p)
	}
	for _, p := range c.Peers {
		if err := p.Announce(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Cluster) newStore(o ClusterOptions, i int) (store.Store, error) {
	if o.Store != BTreeStore && o.Store != NaiveStore {
		return store.NewMem(), nil
	}
	dir, err := c.tempDir(o)
	if err != nil {
		return nil, err
	}
	if o.Store == NaiveStore {
		return newNaiveStore(fmt.Sprintf("%s/peer%d", dir, i))
	}
	st, err := store.OpenBTreeOptions(fmt.Sprintf("%s/peer%d.bt", dir, i), store.Options{Fsync: o.Fsync})
	if err != nil || !o.Batched {
		return st, err
	}
	// The small linger decouples batch formation from disk speed:
	// batches collect for 2ms regardless of how fast the previous
	// fsync returned. Bulk publishes trade that latency for an
	// order of magnitude fewer WAL commits.
	return store.NewCoalescer(st, store.CoalesceOptions{MaxDelay: 2 * time.Millisecond}), nil
}

func (c *Cluster) tempDir(o ClusterOptions) (string, error) {
	if o.TempDir != "" {
		return o.TempDir, nil
	}
	dir, err := os.MkdirTemp("", "kadop-exp-")
	if err != nil {
		return "", err
	}
	c.dirs = append(c.dirs, dir)
	return dir, nil
}

// Close releases cluster resources (disk stores, temp dirs).
func (c *Cluster) Close() {
	for _, nd := range c.Nodes {
		nd.Store().Close()
	}
	for _, d := range c.dirs {
		os.RemoveAll(d)
	}
}

// PublishAll distributes the documents over the first `publishers`
// peers, publishing in parallel (one goroutine per publisher, as in the
// paper's multi-publisher runs), one document per publish call, and
// returns the wall-clock time.
func (c *Cluster) PublishAll(docs []workload.GeneratedDoc, publishers int) (time.Duration, error) {
	return c.PublishAllBatched(docs, publishers, 1)
}

// PublishAllBatched distributes the documents like PublishAll, but
// each publisher submits its share batchSize documents per call:
// postings merge per term across the call, on top of whatever group
// commit the stores do. batchSize <= 0 means 16 documents per call.
func (c *Cluster) PublishAllBatched(docs []workload.GeneratedDoc, publishers, batchSize int) (time.Duration, error) {
	if publishers <= 0 || publishers > len(c.Peers) {
		publishers = 1
	}
	if batchSize <= 0 {
		batchSize = 16
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, publishers)
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]kadop.TreeDoc, 0, batchSize)
			for i := w; i < len(docs); i += publishers {
				batch = append(batch, kadop.TreeDoc{Doc: docs[i].Doc, URI: docs[i].URI})
				if len(batch) == batchSize || i+publishers >= len(docs) {
					if _, errs[w] = c.Peers[w].PublishBatch(batch); errs[w] != nil {
						return
					}
					batch = batch[:0]
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// table renders rows with aligned columns for the experiment reports.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for pad := len(cell); pad < widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	line(header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

func mb(n int64) string { return fmt.Sprintf("%.2f", float64(n)/1e6) }
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// NonOwnerPeer returns a peer that is home for none of the query's
// terms, so phase-one transfers actually cross the network. Experiment
// measurements use it as the query submitter: a submitter that happens
// to own a long list would read it locally for free, which is not the
// regime the paper measures.
func (c *Cluster) NonOwnerPeer(q *pattern.Query) *kadop.Peer {
	for _, p := range c.Peers {
		owns := false
		for _, t := range q.Terms() {
			owner, err := p.Node().Locate(t.Key())
			if err == nil && owner.ID == p.Node().Self().ID {
				owns = true
				break
			}
		}
		if !owns {
			return p
		}
	}
	return c.Peers[0]
}
