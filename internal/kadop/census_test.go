package kadop

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"kadop/internal/dht"
	"kadop/internal/dpp"
	"kadop/internal/metrics"
	"kadop/internal/pattern"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
	"kadop/internal/workload"
	"kadop/internal/xmltree"
)

// census counts what a deployment sends: unary requests by message
// type, application procedures by name, streams opened and the data
// messages they delivered, at every peer's transport.
type census struct {
	mu      sync.Mutex
	calls   map[dht.MsgType]int
	procs   map[string]int
	streams int
	frames  int
	// refuse holds addresses whose delete requests fail, as if the
	// link dropped them, until cleared. Routing calls still reach them,
	// so a delete cannot go to another owner instead.
	refuse map[string]bool
	// down holds addresses no request reaches, as if the peers were
	// stopped, until cleared.
	down map[string]bool
}

func (c *census) reset() {
	c.mu.Lock()
	c.calls, c.procs, c.streams, c.frames = map[dht.MsgType]int{}, map[string]int{}, 0, 0
	c.mu.Unlock()
}

type censusTransport struct {
	dht.Transport
	c *census
}

// Metrics keeps the node's accounting on the network's collector, as
// the unwrapped endpoint does.
func (t censusTransport) Metrics() *metrics.Collector {
	return t.Transport.(interface{ Metrics() *metrics.Collector }).Metrics()
}

func (t censusTransport) Call(ctx context.Context, to dht.Contact, req dht.Message) (dht.Message, error) {
	t.c.mu.Lock()
	if t.c.calls != nil {
		t.c.calls[req.Type]++
	}
	if req.Type == dht.MsgApp {
		t.c.procs[req.Proc]++
	}
	refused := req.Type == dht.MsgDelete && t.c.refuse[to.Addr]
	down := t.c.down[to.Addr]
	t.c.mu.Unlock()
	if refused {
		return dht.Message{}, fmt.Errorf("census: %s refused a delete", to.Addr)
	}
	if down {
		return dht.Message{}, fmt.Errorf("census: %s is down", to.Addr)
	}
	return t.Transport.Call(ctx, to, req)
}

func (t censusTransport) OpenStream(ctx context.Context, to dht.Contact, req dht.Message) (dht.MsgStream, error) {
	t.c.mu.Lock()
	t.c.streams++
	down := t.c.down[to.Addr]
	t.c.mu.Unlock()
	if down {
		return nil, fmt.Errorf("census: %s is down", to.Addr)
	}
	ms, err := t.Transport.OpenStream(ctx, to, req)
	if err != nil {
		return nil, err
	}
	return censusStream{ms, t.c}, nil
}

// censusStream counts the data messages a stream delivers; its end
// marker is not one.
type censusStream struct {
	dht.MsgStream
	c *census
}

func (s censusStream) Recv() (dht.Message, error) {
	m, err := s.MsgStream.Recv()
	if err == nil {
		s.c.mu.Lock()
		s.c.frames++
		s.c.mu.Unlock()
	}
	return m, err
}

// censusCluster is eight publishing DPP peers on free links, every
// transport counted.
func censusCluster(t *testing.T, cen *census) *cluster {
	return censusClusterOf(t, cen, dht.Config{}, Config{UseDPP: true, DPP: dpp.Options{BlockSize: 16}})
}

func censusClusterOf(t *testing.T, cen *census, dcfg dht.Config, cfg Config) *cluster {
	t.Helper()
	c := &cluster{net: dht.NewNetwork()}
	var nodes []*dht.Node
	for i := 0; i < 8; i++ {
		nd, err := dht.NewNode(censusTransport{c.net.NewEndpoint(), cen}, store.NewMem(), dcfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	for _, nd := range nodes[1:] {
		if err := nd.Bootstrap(nodes[0].Self()); err != nil {
			t.Fatal(err)
		}
	}
	for i, nd := range nodes {
		if _, err := nd.Lookup(nd.Self().ID); err != nil {
			t.Fatal(err)
		}
		p, err := NewPeer(nd, sid.PeerID(i+1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.peers = append(c.peers, p)
	}
	for _, p := range c.peers {
		if err := p.Announce(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// censusClient joins a query-only peer: it owns no key and holds no
// block, so everything it reads crosses a counted transport.
func censusClient(t *testing.T, c *cluster, cen *census, id int, cacheBytes int64) *Peer {
	t.Helper()
	nd, err := dht.NewNode(censusTransport{c.net.NewEndpoint(), cen}, store.NewMem(), dht.Config{Client: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Bootstrap(c.peers[0].Node().Self()); err != nil {
		t.Fatal(err)
	}
	p, err := NewPeer(nd, sid.PeerID(id), Config{UseDPP: true, DPP: dpp.Options{BlockSize: 16}, CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReadPathMessageCensus counts the messages of a three-term DPP
// query, no wall clock involved: with lists overflowed into dozens of
// blocks over eight peers, the index phase is one lookup per distinct
// term, whose FIND_NODE replies bring the root back (no root RPC), no
// count RPC, and at most one stream per
// (term, block holder) — under the automatic and the fixed plan, with
// and without a block cache, whether or not the document interval
// clips the lists — and the answers are the oracle's.
func TestReadPathMessageCensus(t *testing.T) {
	q := pattern.MustParse(`//article[//year]//author`)
	terms := []string{"l:article", "l:year", "l:author"}
	// clipping: only the documents of two publishers carry a year, so the
	// interval of Section 4.2 cuts the other lists; spanning: all do.
	corpus := func(clipping bool) []string {
		var docs []string
		for i := 0; i < 160; i++ {
			year := "<year>2001</year>"
			if clipping && i%8 != 2 && i%8 != 3 {
				year = ""
			}
			docs = append(docs, fmt.Sprintf(
				`<dblp><article><author>A%d</author><author>B%d</author><author>C%d</author>%s<title>T%d</title></article></dblp>`, i, i, i, year, i))
		}
		return docs
	}
	for _, clipping := range []bool{false, true} {
		for _, cacheBytes := range []int64{0, 1 << 20} {
			cen := &census{procs: map[string]int{}}
			c := censusCluster(t, cen)
			truth := publishAll(t, c, corpus(clipping))
			want := truth(q)
			var wantDocs []sid.DocKey
			for _, m := range want {
				if n := len(wantDocs); n == 0 || wantDocs[n-1] != m.Doc {
					wantDocs = append(wantDocs, m.Doc)
				}
			}
			for si, strategy := range []Strategy{AutoStrategy, Conventional} {
				name := fmt.Sprintf("clipping=%v/cache=%d/%v", clipping, cacheBytes, strategy)
				t.Run(name, func(t *testing.T) {
					client := censusClient(t, c, cen, 100+si, cacheBytes)
					// What the plan may touch: per term, the holders of the
					// blocks the document interval keeps.
					roots := map[string]*dpp.Root{}
					blocks := 0
					for _, term := range terms {
						r, err := client.dpp.Root(context.Background(), term)
						if err != nil {
							t.Fatal(err)
						}
						roots[term] = r
						blocks += len(r.Blocks)
					}
					if blocks < 20 {
						t.Fatalf("lists overflowed into %d blocks, want at least 20", blocks)
					}
					lo, hi := docInterval(roots)
					holders := 0
					for _, r := range roots {
						seen := map[string]bool{}
						for _, b := range r.Blocks {
							if b.Hi.Key().Compare(lo) >= 0 && b.Lo.Key().Compare(hi) <= 0 {
								seen[b.Owner] = true
							}
						}
						holders += len(seen)
					}

					run := func(opts QueryOptions) (*Result, int64) {
						t.Helper()
						cen.reset()
						before := c.net.Collector.Hist(metrics.OpLookup).Count()
						res, err := client.Query(q, opts)
						if err != nil {
							t.Fatal(err)
						}
						return res, c.net.Collector.Hist(metrics.OpLookup).Count() - before
					}
					res, lookups := run(QueryOptions{Strategy: strategy, IndexOnly: true})
					if !reflect.DeepEqual(res.Docs, wantDocs) {
						t.Errorf("index phase found %d documents, oracle %d", len(res.Docs), len(wantDocs))
					}
					if lookups != int64(len(terms)) {
						t.Errorf("%d lookups started, want one per distinct term (%d)", lookups, len(terms))
					}
					if n := cen.procs[procCount]; n != 0 {
						t.Errorf("%d %s calls under the DPP, want none: the roots carry the counts", n, procCount)
					}
					if n := cen.procs[dpp.ProcRoot]; n != 0 {
						t.Errorf("%d root RPCs, want none: each term's lookup brings its root", n)
					}
					if cen.streams == 0 || cen.streams > holders {
						t.Errorf("%d streams opened, want between 1 and the %d (term, holder) pairs", cen.streams, holders)
					}
					if cacheBytes > 0 {
						// Warm: the same plan, every block from the cache.
						if _, lookups := run(QueryOptions{Strategy: strategy, IndexOnly: true}); cen.streams != 0 || lookups != int64(len(terms)) {
							t.Errorf("warm run opened %d streams after %d lookups, want 0 after %d", cen.streams, lookups, len(terms))
						}
					}
					full, _ := run(QueryOptions{Strategy: strategy})
					sortMatches(full.Matches)
					if !reflect.DeepEqual(full.Matches, want) {
						t.Errorf("%d answers, oracle %d", len(full.Matches), len(want))
					}
				})
			}
		}
	}
}

// TestIndexPhaseRoundTrips counts the stages of the index phase that
// used to cost a round trip each time they were entered: on a settled
// eight-peer cluster a Locate or Owners lookup is one α-round of
// FIND_NODE RPCs (the closest peer answers without naming a closer one),
// a term's root comes back in its lookup's FIND_NODE replies, read by a
// client or by the home itself, and a holder stream of B blocks under
// the frame budget is one data frame (then its end marker), not one
// chunk per block.
func TestIndexPhaseRoundTrips(t *testing.T) {
	const alpha = 3 // dht.Config's default lookup parallelism
	ctx := context.Background()
	cen := &census{}
	cen.reset()
	for _, repl := range []int{1, 3} {
		dcfg := dht.Config{Replication: repl}
		c := censusClusterOf(t, cen, dcfg, Config{DHT: dcfg})
		dcfg.Client = true
		client, err := dht.NewNode(censusTransport{c.net.NewEndpoint(), cen}, store.NewMem(), dcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Bootstrap(c.peers[0].Node().Self()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("l:t%d", i)
			cen.reset()
			owner, err := client.LocateContext(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if n := cen.calls[dht.MsgFindNode]; n > alpha {
				t.Errorf("replication %d: Locate(%q) sent %d FIND_NODE RPCs, want at most α = %d", repl, key, n, alpha)
			}
			cen.reset()
			owners, err := client.Owners(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if n := cen.calls[dht.MsgFindNode]; n > alpha {
				t.Errorf("replication %d: Owners(%q) sent %d FIND_NODE RPCs, want at most α = %d", repl, key, n, alpha)
			}
			// The short lookups still find the true owners: the ones a full
			// peer's K-wide lookup names.
			full, err := c.peers[i%len(c.peers)].Node().LookupContext(ctx, dht.KeyID(key))
			if err != nil {
				t.Fatal(err)
			}
			if len(owners) != repl || owner != full[0] || !reflect.DeepEqual(owners, full[:repl]) {
				t.Errorf("replication %d: %q located at %v, owners %v; the full lookup says %v", repl, key, owner, owners, full[:repl])
			}
		}
	}

	dc := censusCluster(t, cen)
	reader := censusClient(t, dc, cen, 100, 0)
	for i := 0; i < 12; i++ {
		term := fmt.Sprintf("l:r%d", i)
		want := make(postings.List, 40) // overflows the census cluster's 16-posting blocks
		for j := range want {
			want[j] = sid.Posting{Peer: 1, Doc: sid.DocID(j), SID: sid.SID{Start: 1, End: 2, Level: 1}}
		}
		if err := dc.peers[i%len(dc.peers)].dpp.Append(ctx, term, want, ""); err != nil {
			t.Fatal(err)
		}
		home, err := reader.Node().LocateContext(ctx, term)
		if err != nil {
			t.Fatal(err)
		}
		var homePeer *Peer
		for _, p := range dc.peers {
			if p.Node().Self() == home {
				homePeer = p
			}
		}
		for _, who := range []*Peer{reader, homePeer} {
			cen.reset()
			root, err := who.dpp.Root(ctx, term)
			if err != nil {
				t.Fatal(err)
			}
			finds, calls := cen.calls[dht.MsgFindNode], 0
			for _, n := range cen.calls {
				calls += n
			}
			if finds > alpha || calls != finds || cen.streams != 0 {
				t.Errorf("Root(%q) from %s sent %d FIND_NODEs, %d RPCs and %d streams, want at most α = %d FIND_NODEs and nothing else",
					term, who.Node().Self().Addr, finds, calls, cen.streams, alpha)
			}
			if root.Home != home.Addr || root.Postings() != len(want) || len(root.Blocks) == 0 {
				t.Errorf("Root(%q) from %s: home %s, %d postings in %d blocks; want home %s, %d postings overflowed",
					term, who.Node().Self().Addr, root.Home, root.Postings(), len(root.Blocks), home.Addr, len(want))
			}
		}
	}

	c := censusClusterOf(t, cen, dht.Config{}, Config{})
	client := censusClient(t, c, cen, 100, 0).Node()
	holder := c.peers[3].Node()
	var keys []string
	for b := 0; b < 14; b++ {
		key := fmt.Sprintf("overflow:%d:l:census", b)
		list := make(postings.List, 200) // about 1 KB a block encoded
		for i := range list {
			list[i] = sid.Posting{Peer: 2, Doc: sid.DocID(b*200 + i), SID: sid.SID{Start: 1, End: 2, Level: 1}}
		}
		if err := holder.Store().Append(key, list); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	cen.reset()
	delivered := 0
	if err := client.GetBatch(ctx, holder.Self(), dht.BatchGet{Keys: keys}, func(int, postings.List) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	if delivered != len(keys) || cen.streams != 1 || cen.frames != 1 {
		t.Errorf("holder stream of %d blocks: %d delivered over %d streams in %d data frames, want all over 1 stream in 1 frame",
			len(keys), delivered, cen.streams, cen.frames)
	}
}

// TestWritePathMessageCensus is the write-side twin: at replication R,
// an append, a list delete and a key delete each cost one lookup and
// one RPC per remote owner, however many postings they carry; and
// unpublishing a document of P postings over T terms costs one lookup
// and one delete RPC per (term, remote owner) — T per owner, not P.
func TestWritePathMessageCensus(t *testing.T) {
	const repl = 3
	ctx := context.Background()
	cen := &census{}
	cen.reset()
	dcfg := dht.Config{Replication: repl}
	c := censusClusterOf(t, cen, dcfg, Config{DHT: dcfg})
	lookups := func() int64 { return c.net.Collector.Hist(metrics.OpLookup).Count() }

	// A client node owns no key: every owner is a remote one.
	dcfg.Client = true
	client, err := dht.NewNode(censusTransport{c.net.NewEndpoint(), cen}, store.NewMem(), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Bootstrap(c.peers[0].Node().Self()); err != nil {
		t.Fatal(err)
	}
	list := make(postings.List, 40)
	for i := range list {
		list[i] = sid.Posting{Peer: 9, Doc: sid.DocID(i / 4), SID: sid.SID{Start: uint32(2*i + 1), End: uint32(2*i + 2), Level: 1}}
	}
	for _, op := range []struct {
		name string
		typ  dht.MsgType
		run  func() error
	}{
		{"Append", dht.MsgAppend, func() error { return client.Append(ctx, "l:census", list) }},
		{"Delete", dht.MsgDelete, func() error { return client.Delete(ctx, "l:census", list[:17]) }},
		{"DeleteKey", dht.MsgDeleteKey, func() error { return client.DeleteKey(ctx, "l:census") }},
	} {
		cen.reset()
		before := lookups()
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if n := lookups() - before; n != 1 {
			t.Errorf("%s: %d lookups, want 1", op.name, n)
		}
		if n := cen.calls[op.typ]; n != repl {
			t.Errorf("%s: %d %s RPCs, want one per owner (%d)", op.name, n, op.typ, repl)
		}
	}
	if got, err := client.Get(ctx, "l:census"); err != nil || len(got) != 0 {
		t.Errorf("after DeleteKey: %d postings, err %v", len(got), err)
	}

	pub := c.peers[2]
	doc, err := xmltree.ParseBytes([]byte(
		`<dblp><article><author>A</author><author>B</author><author>C</author><title>T</title></article><article><author>D</author><title>U</title></article></dblp>`))
	if err != nil {
		t.Fatal(err)
	}
	key, err := pub.Publish(doc, "census.xml")
	if err != nil {
		t.Fatal(err)
	}
	tps := xmltree.Extract(doc, pub.ID(), key.Doc, xmltree.ExtractOptions{})
	terms := map[string]bool{}
	for _, tp := range tps {
		terms[tp.Term.Key()] = true
	}
	if len(tps) <= len(terms) {
		t.Fatalf("document has %d postings over %d terms; the census needs P > T", len(tps), len(terms))
	}
	remote := 0
	for term := range terms {
		owners, err := pub.Node().Owners(ctx, term)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range owners {
			if o.ID != pub.Node().Self().ID {
				remote++
			}
		}
	}
	cen.reset()
	before := lookups()
	if err := pub.Unpublish(ctx, key.Doc); err != nil {
		t.Fatal(err)
	}
	if n := lookups() - before; n != int64(len(terms)) {
		t.Errorf("Unpublish: %d lookups, want one per term (%d)", n, len(terms))
	}
	if n := cen.calls[dht.MsgDelete]; n != remote {
		t.Errorf("Unpublish of %d postings over %d terms: %d delete RPCs, want one per (term, remote owner) = %d",
			len(tps), len(terms), n, remote)
	}
	for term := range terms {
		if got, err := client.Get(ctx, term); err != nil || len(got) != 0 {
			t.Errorf("after Unpublish: %q holds %d postings, err %v", term, len(got), err)
		}
	}
}

// TestAnswerPhaseCensus counts the answer phase's element visits for
// one full query over DBLP documents, no wall clock involved. The
// document peers draw each pattern node's candidates from the subtree
// of the element its pattern parent is bound to; the reference
// evaluator, which the second phase ran before, rescanned every element
// of the document for every pattern node and visited
// referenceElementsScanned elements here. The documents evaluated and
// the answers, in order, are the oracle's.
//
// Only a relaxed query reaches the answer phase, so the census query's
// last step is a wildcard. Its element visits are those of
// `//article[//year]//author`: a pattern's last node is scanned over
// the same ranges whatever its label. That query itself has no
// wildcard: the index join answers it, and its document peers are only
// asked, once each, which of its documents they no longer publish.
func TestAnswerPhaseCensus(t *testing.T) {
	const (
		referenceElementsScanned = 89310
		elementsScanned          = 5872
		docsEvaluated            = 20
	)
	cen := &census{procs: map[string]int{}}
	c := censusCluster(t, cen)
	var docs []string
	for _, d := range (workload.DBLP{Seed: 7, Records: 500}).Documents() {
		docs = append(docs, xmltree.Serialize(d.Doc))
	}
	truth := publishAll(t, c, docs)
	client := censusClient(t, c, cen, 100, 0)
	holders := func(docs []sid.DocKey) []sid.PeerID {
		peers, _ := byPeer(docs)
		return peers
	}

	exact := pattern.MustParse(`//article[//year]//author`)
	cen.reset()
	res, err := client.Query(exact, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkIndexAnswered(t, res, truth(exact), int64(cen.procs[procAnswer]))
	if n, want := cen.procs[procGone], len(holders(res.Docs)); n != want || n == 0 {
		t.Errorf("exact query: %d confirmations, want one per document peer (%d)", n, want)
	}

	q := pattern.MustParse(`//article[//year]//*`)
	cen.reset()
	res, err = client.Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := truth(q)
	if !reflect.DeepEqual(res.Matches, want) {
		t.Errorf("%d answers, oracle %d (or not in the oracle's order)", len(res.Matches), len(want))
	}
	// The relaxed query still asks every peer holding a candidate
	// document, once, and phase two needs no confirmation.
	if n, want := cen.procs[procAnswer], len(holders(res.Docs)); n != want || n == 0 || cen.procs[procGone] != 0 {
		t.Errorf("relaxed query: %d phase-two requests, want one per document peer (%d), and %d confirmations, want none",
			n, want, cen.procs[procGone])
	}
	got := res.Cost
	t.Logf("elements scanned %d, documents evaluated %d, answers %d", got.ElementsScanned, got.DocsEvaluated, got.Answers)
	if got.ElementsScanned != elementsScanned || 10*got.ElementsScanned > referenceElementsScanned {
		t.Errorf("%d elements scanned, want %d (the reference evaluator visited %d)", got.ElementsScanned, elementsScanned, referenceElementsScanned)
	}
	if got.DocsEvaluated != docsEvaluated || got.Answers != int64(len(want)) {
		t.Errorf("%d documents evaluated and %d answers, want %d and %d", got.DocsEvaluated, got.Answers, docsEvaluated, len(want))
	}
}
