package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kadop/internal/dht"
	"kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/sid"
	"kadop/internal/store"
	"kadop/internal/workload"
	"kadop/internal/xmltree"
)

// corpus is the seeded DBLP-like collection, serialised to XML bytes as
// a publisher would hold it.
type corpus struct {
	docs  []kadop.BatchDoc
	bytes int64 // total XML bytes
}

func makeCorpus(seed int64, records int) *corpus {
	c := &corpus{}
	for _, d := range (workload.DBLP{Seed: seed, Records: records}).Documents() {
		raw := []byte(xmltree.Serialize(d.Doc))
		c.docs = append(c.docs, kadop.BatchDoc{XML: raw, URI: d.URI})
		c.bytes += int64(len(raw))
	}
	return c
}

// xmlBytes is the size of documents [lo, hi).
func (c *corpus) xmlBytes(lo, hi int) int64 {
	var n int64
	for _, d := range c.docs[lo:hi] {
		n += int64(len(d.XML))
	}
	return n
}

// cluster is one in-process KadoP deployment on the simulated network,
// every background loop off (all intervals zero).
type cluster struct {
	spec  *spec
	net   *dht.Network
	peers []*kadop.Peer
	dir   string // holds the peers' data directories; "" for Mem stores

	mu   sync.Mutex
	keys map[sid.DocKey]int // published document → corpus index
}

// storeOptions is how a disk peer's B+-tree is opened.
func (s *spec) storeOptions() store.Options { return store.Options{Fsync: s.fsync} }

// newCluster builds and bootstraps the deployment. rec is nil for
// end-to-end runs: no wrapper is constructed at all.
func newCluster(s *spec, dir string, rec *recorder) (*cluster, error) {
	c := &cluster{spec: s, net: dht.NewNetwork(), keys: map[sid.DocKey]int{}}
	if s.disk {
		c.dir = dir
	}
	var nodes []*dht.Node
	var stores []store.Store
	fail := func(err error) (*cluster, error) {
		for _, st := range stores {
			st.Close()
		}
		return nil, err
	}
	for i := 0; i < clusterPeers; i++ {
		var tr dht.Transport = c.net.NewEndpoint()
		var st store.Store = store.NewMem()
		if s.disk {
			pdir := c.peerDir(i)
			if err := os.MkdirAll(pdir, 0o755); err != nil {
				return fail(err)
			}
			bt, err := store.OpenBTreeOptions(filepath.Join(pdir, "index.bt"), s.storeOptions())
			if err != nil {
				return fail(err)
			}
			st = bt
		}
		if s.coalesce {
			if rec != nil {
				st = &timedStore{Store: st, rec: rec, peer: tr.Addr(), commit: true}
			}
			st = store.NewCoalescer(st, store.CoalesceOptions{MaxDelay: coalesceLinger})
		}
		if rec != nil {
			st = &timedStore{Store: st, rec: rec, peer: tr.Addr()}
			tr = &timedTransport{Transport: tr, rec: rec, collector: c.net.Collector}
		}
		stores = append(stores, st)
		nd, err := dht.NewNode(tr, st, dht.Config{Seed: 1})
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, nd)
	}
	for i := 1; i < len(nodes); i++ {
		if err := nodes[i].Bootstrap(nodes[0].Self()); err != nil {
			return fail(fmt.Errorf("bootstrap peer %d: %w", i, err))
		}
	}
	for _, nd := range nodes {
		if _, err := nd.Lookup(nd.Self().ID); err != nil {
			return fail(err)
		}
	}
	for i, nd := range nodes {
		cfg := s.cfg
		if s.dataDir {
			cfg.DataDir = c.peerDir(i)
			cfg.Fsync = s.fsync
		}
		p, err := kadop.NewPeer(nd, sid.PeerID(i+1), cfg)
		if err != nil {
			return fail(err)
		}
		p.AttachStore(stores[i])
		c.peers = append(c.peers, p)
	}
	for _, p := range c.peers {
		if err := p.Announce(); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) peerDir(i int) string { return filepath.Join(c.dir, fmt.Sprintf("peer%d", i)) }

// close shuts every peer down cleanly: nodes stop, stores checkpoint
// and close, journals close. The link model is reset first so shutdown
// traffic does not sleep on modelled links.
func (c *cluster) close() error {
	c.net.SetModel(dht.LinkModel{})
	var first error
	for _, p := range c.peers {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.peers = nil
	return first
}

// publishCall publishes documents [lo, hi) of the corpus through one
// PublishXMLBatch call and records their keys.
func (c *cluster) publishCall(p *kadop.Peer, co *corpus, lo, hi int) error {
	keys, err := p.PublishXMLBatch(co.docs[lo:hi])
	c.mu.Lock()
	for i, k := range keys {
		c.keys[k] = lo + i
	}
	c.mu.Unlock()
	if err == nil && len(keys) != hi-lo {
		err = fmt.Errorf("publish returned %d keys for %d documents", len(keys), hi-lo)
	}
	return err
}

// preload bulk-publishes documents [0, n) from the given publishers,
// publishBatch documents per call, document i going to publisher
// (i / publishBatch) mod len(publishers).
func (c *cluster) preload(co *corpus, n int, publishers []int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(publishers))
	for w := range publishers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := c.peers[publishers[w]]
			for lo := w * publishBatch; lo < n; lo += publishBatch * len(publishers) {
				hi := lo + publishBatch
				if hi > n {
					hi = n
				}
				if err := c.publishCall(p, co, lo, hi); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// classBytes sums the collector's bytes over traffic classes.
func classBytes(by map[metrics.Class]int64, classes ...metrics.Class) int64 {
	var n int64
	for _, cl := range classes {
		n += by[cl]
	}
	return n
}

// queryClasses are the traffic classes a query moves: everything but
// publish-time index appends and replica repair.
var queryClasses = []metrics.Class{
	metrics.Routing, metrics.Postings, metrics.Filters,
	metrics.FiltersAB, metrics.FiltersDB, metrics.Control,
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// reopenMillis opens and closes each peer's B+-tree after a clean close
// and returns the mean open time.
func (c *cluster) reopenMillis() (float64, error) {
	var total time.Duration
	for i := 0; i < clusterPeers; i++ {
		start := time.Now()
		bt, err := store.OpenBTreeOptions(filepath.Join(c.peerDir(i), "index.bt"), c.spec.storeOptions())
		if err != nil {
			return 0, err
		}
		total += time.Since(start)
		if err := bt.Close(); err != nil {
			return 0, err
		}
	}
	return ms(total) / float64(clusterPeers), nil
}
