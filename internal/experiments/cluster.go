package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"kadop/internal/dht"
	"kadop/internal/kadop"
	"kadop/internal/pattern"
	"kadop/internal/postings"
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

// ClusterOptions configure a simulated deployment.
type ClusterOptions struct {
	Peers int
	// Cfg configures every peer; Cfg.DHT also configures its overlay
	// node (the zero value: one copy of every key, one RPC attempt).
	Cfg   kadop.Config
	Store StoreKind
	// Fsync is the WAL sync policy of BTreeStore peers (default
	// FsyncAlways, the durable setting).
	Fsync store.FsyncPolicy
	// Batched wraps each BTreeStore peer's store in the write
	// coalescer: concurrent index appends group-commit, one WAL
	// transaction and one fsync per batch.
	Batched bool
}

// Cluster is a simulated KadoP deployment.
type Cluster struct {
	Net   *dht.Network
	Nodes []*dht.Node
	Peers []*kadop.Peer
	dir   string // disk stores, removed by Close
	// commits counts the writes that reached a BTreeStore peer's tree:
	// one WAL commit each, so one fsync each at FsyncAlways.
	commits atomic.Int64
}

// NewCluster builds and bootstraps a deployment.
func NewCluster(o ClusterOptions) (*Cluster, error) {
	c := &Cluster{Net: dht.NewNetwork()}
	if err := c.build(o); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Cluster) build(o ClusterOptions) error {
	if o.Store != MemStore {
		dir, err := os.MkdirTemp("", "kadop-exp-")
		if err != nil {
			return err
		}
		c.dir = dir
	}
	for i := 0; i < o.Peers; i++ {
		st, err := c.newStore(o, i)
		if err != nil {
			return err
		}
		nd, err := dht.NewNode(c.Net.NewEndpoint(), st, o.Cfg.DHT)
		if err != nil {
			st.Close()
			return err
		}
		c.Nodes = append(c.Nodes, nd)
	}
	for i := 1; i < o.Peers; i++ {
		if err := c.Nodes[i].Bootstrap(c.Nodes[0].Self()); err != nil {
			return fmt.Errorf("experiments: bootstrap peer %d: %w", i, err)
		}
	}
	for _, nd := range c.Nodes {
		if _, err := nd.Lookup(nd.Self().ID); err != nil {
			return err
		}
	}
	for i, nd := range c.Nodes {
		p, err := kadop.NewPeer(nd, sid.PeerID(i+1), o.Cfg)
		if err != nil {
			return err
		}
		c.Peers = append(c.Peers, p)
	}
	for _, p := range c.Peers {
		if err := p.Announce(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cluster) newStore(o ClusterOptions, i int) (store.Store, error) {
	switch o.Store {
	case NaiveStore:
		return newNaiveStore(fmt.Sprintf("%s/peer%d", c.dir, i))
	case BTreeStore:
		bt, err := store.OpenBTreeOptions(c.treePath(i), store.Options{Fsync: o.Fsync})
		if err != nil {
			return nil, err
		}
		st := store.Store(&commitCounter{Store: bt, n: &c.commits})
		if !o.Batched {
			return st, nil
		}
		// The small linger decouples batch formation from disk speed:
		// batches collect for 2ms regardless of how fast the previous
		// fsync returned. Bulk publishes trade that latency for an
		// order of magnitude fewer WAL commits.
		return store.NewCoalescer(st, store.CoalesceOptions{MaxDelay: 2 * time.Millisecond}), nil
	}
	return store.NewMem(), nil
}

func (c *Cluster) treePath(i int) string { return fmt.Sprintf("%s/peer%d.bt", c.dir, i) }

// commitCounter sits between the write coalescer and the B+-tree and
// counts the writes that reach the tree.
type commitCounter struct {
	store.Store
	n *atomic.Int64
}

func (s *commitCounter) Append(term string, ps postings.List) error {
	s.n.Add(1)
	return s.Store.Append(term, ps)
}

func (s *commitCounter) Delete(term string, p sid.Posting) error {
	s.n.Add(1)
	return s.Store.Delete(term, p)
}

func (s *commitCounter) ApplyBatch(b *store.Batch) error {
	s.n.Add(1)
	return s.Store.ApplyBatch(b)
}

// Close releases cluster resources (disk stores, their directory).
func (c *Cluster) Close() {
	for _, nd := range c.Nodes {
		nd.Store().Close()
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// reopen closes every BTreeStore peer's store and times opening it
// again from its files: the restart path, a checksum sweep plus a WAL
// scan. Only Close may follow.
func (c *Cluster) reopen() (time.Duration, error) {
	var total time.Duration
	for i, nd := range c.Nodes {
		nd.Store().Close()
		start := time.Now()
		st, err := store.OpenBTree(c.treePath(i))
		if err != nil {
			return 0, fmt.Errorf("experiments: reopen peer %d: %w", i, err)
		}
		total += time.Since(start)
		st.Close()
	}
	return total, nil
}

// withCluster builds a deployment, publishes docs from four peers (the
// paper's multi-publisher setting, one document per call), runs fn on
// it and closes it on every path.
func withCluster(o ClusterOptions, docs []workload.GeneratedDoc, fn func(*Cluster) error) error {
	cl, err := NewCluster(o)
	if err != nil {
		return err
	}
	defer cl.Close()
	if _, err := cl.PublishAll(docs, 4, 1); err != nil {
		return fmt.Errorf("experiments: publish: %w", err)
	}
	return fn(cl)
}

// parseAll parses the experiment's fixed query set.
func parseAll(qs []string) []*pattern.Query {
	out := make([]*pattern.Query, len(qs))
	for i, q := range qs {
		out[i] = pattern.MustParse(q)
	}
	return out
}

// query runs q from p under the experiments' per-query deadline.
func query(p *kadop.Peer, q *pattern.Query, opts kadop.QueryOptions) (*kadop.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return p.QueryContext(ctx, q, opts)
}

// PublishAll distributes the documents over the first `publishers`
// peers (never more than there are), publishing in parallel — one
// goroutine per publisher, as in the paper's multi-publisher runs —
// perCall documents per publish call, and returns the wall-clock time.
// Postings merge per term across a call, on top of whatever group
// commit the stores do.
func (c *Cluster) PublishAll(docs []workload.GeneratedDoc, publishers, perCall int) (time.Duration, error) {
	publishers = max(1, min(publishers, len(c.Peers)))
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, publishers)
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]kadop.TreeDoc, 0, perCall)
			for i := w; i < len(docs); i += publishers {
				batch = append(batch, kadop.TreeDoc{Doc: docs[i].Doc, URI: docs[i].URI})
				if len(batch) == perCall || i+publishers >= len(docs) {
					if _, errs[w] = c.Peers[w].PublishBatch(batch); errs[w] != nil {
						return
					}
					batch = batch[:0]
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
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
