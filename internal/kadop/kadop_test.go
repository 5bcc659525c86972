package kadop

import (
	"context"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"kadop/internal/dht"
	"kadop/internal/dpp"
	"kadop/internal/metrics"
	"kadop/internal/pattern"
	"kadop/internal/sid"
	"kadop/internal/store"
	"kadop/internal/twigjoin"
	"kadop/internal/workload"
	"kadop/internal/xmltree"
)

// cluster is a simulated KadoP deployment.
type cluster struct {
	net   *dht.Network
	peers []*Peer
}

func newCluster(t testing.TB, n int, cfg Config) *cluster {
	t.Helper()
	c := &cluster{net: dht.NewNetwork()}
	var nodes []*dht.Node
	for i := 0; i < n; i++ {
		node, err := dht.NewNode(c.net.NewEndpoint(), store.NewMem(), dht.Config{})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	for i := 1; i < n; i++ {
		if err := nodes[i].Bootstrap(nodes[0].Self()); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range nodes {
		if _, err := nd.Lookup(nd.Self().ID); err != nil {
			t.Fatal(err)
		}
	}
	for i, nd := range nodes {
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

// dblpDocs is a small corpus exercising the paper's queries.
var dblpDocs = []string{
	`<dblp><article><author>Jeffrey Ullman</author><title>Principles of database systems</title></article></dblp>`,
	`<dblp><article><author>Serge Abiteboul</author><title>Querying XML</title></article>
	 <article><author>Jeffrey Ullman</author><title>Data on the web</title></article></dblp>`,
	`<dblp><inproceedings><author>Jeffrey Ullman</author><title>A survey</title></inproceedings></dblp>`,
	`<dblp><article><author>Ioana Manolescu</author><title>XML processing in DHT networks</title></article></dblp>`,
	`<catalog><book><title>No authors in this one</title></book></catalog>`,
}

// publishAll distributes the corpus round-robin over the peers and
// returns the ground-truth evaluator.
func publishAll(t testing.TB, c *cluster, docs []string) func(q *pattern.Query) []twigjoin.Match {
	t.Helper()
	type stored struct {
		key sid.DocKey
		doc *xmltree.Document
	}
	var all []stored
	for i, src := range docs {
		p := c.peers[i%len(c.peers)]
		d, err := xmltree.ParseBytes([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		key, err := p.Publish(d, fmt.Sprintf("doc%d.xml", i))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, stored{key, d})
	}
	return func(q *pattern.Query) []twigjoin.Match {
		var out []twigjoin.Match
		for _, s := range all {
			for _, m := range pattern.MatchDocument(q, s.doc, s.key) {
				ps := make([]sid.Posting, len(m.Elements))
				for i, e := range m.Elements {
					ps[i] = sid.Posting{Peer: s.key.Peer, Doc: s.key.Doc, SID: e}
				}
				out = append(out, twigjoin.Match{Doc: s.key, Postings: ps})
			}
		}
		sortMatches(out)
		return out
	}
}

func sortMatches(ms []twigjoin.Match) {
	sort.Slice(ms, func(i, j int) bool {
		if c := ms[i].Doc.Compare(ms[j].Doc); c != 0 {
			return c < 0
		}
		for k := range ms[i].Postings {
			if k >= len(ms[j].Postings) {
				return false
			}
			if c := ms[i].Postings[k].Compare(ms[j].Postings[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

var paperQueries = []string{
	`//article//author`,
	`//article//author[. contains "Ullman"]`,
	`//article[//title]//author[. contains "Ullman"]`,
	`//article[. contains "Ullman"]`,
	`//dblp//title`,
	`//article//editor`,
}

func checkQueries(t *testing.T, c *cluster, truth func(*pattern.Query) []twigjoin.Match, opts QueryOptions) {
	t.Helper()
	for _, qs := range paperQueries {
		q := pattern.MustParse(qs)
		res, err := c.peers[len(c.peers)-1].Query(q, opts)
		if err != nil {
			t.Fatalf("Query(%s, %v): %v", qs, opts.Strategy, err)
		}
		got := res.Matches
		sortMatches(got)
		want := truth(q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %s strategy %v:\n got %d matches %v\nwant %d matches %v",
				qs, opts.Strategy, len(got), got, len(want), want)
		}
	}
}

func TestEndToEndConventional(t *testing.T) {
	c := newCluster(t, 8, Config{})
	truth := publishAll(t, c, dblpDocs)
	checkQueries(t, c, truth, QueryOptions{})
}

func TestEndToEndWithDPP(t *testing.T) {
	c := newCluster(t, 8, Config{UseDPP: true, DPP: dpp.Options{BlockSize: 4}})
	truth := publishAll(t, c, dblpDocs)
	checkQueries(t, c, truth, QueryOptions{})
}

// TestEndToEndStrategies checks every strategy against the oracle, on
// plain lists and composed with the DPP. Beside the small corpus there
// are 130 one-article documents, three of them Ullman's, so that with
// four postings to a block every label list overflows and the keyword
// is rare enough for AutoStrategy to filter: the branching query
// //article[//title]//author[. contains "Ullman"] then reduces the
// author path and fetches the long title list conventionally, from its
// blocks.
func TestEndToEndStrategies(t *testing.T) {
	docs := append([]string(nil), dblpDocs...)
	for i := 0; i < 130; i++ {
		author := fmt.Sprintf("Person %d", i)
		if i == 5 || i == 61 || i == 118 {
			author = "Jeffrey Ullman"
		}
		docs = append(docs, fmt.Sprintf(
			`<dblp><article><author>%s</author><title>Paper %d</title></article></dblp>`, author, i))
	}
	for _, cfg := range []Config{{}, {UseDPP: true, DPP: dpp.Options{BlockSize: 4}}} {
		name := "plain"
		if cfg.UseDPP {
			name = "dpp"
		}
		for _, strat := range []Strategy{Conventional, ABReducer, DBReducer, BloomReducer, SubQueryReducer, AutoStrategy} {
			t.Run(name+"/"+strat.String(), func(t *testing.T) {
				c := newCluster(t, 8, cfg)
				truth := publishAll(t, c, docs)
				checkQueries(t, c, truth, QueryOptions{Strategy: strat})
			})
		}
	}
}

func TestWildcardQuery(t *testing.T) {
	c := newCluster(t, 6, Config{})
	truth := publishAll(t, c, dblpDocs)
	q := pattern.MustParse(`//*[contains(.,'xml')]//title`)
	res, err := c.peers[0].Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matches
	sortMatches(got)
	want := truth(q)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wildcard query:\n got %v\nwant %v", got, want)
	}
	if len(got) == 0 {
		t.Error("expected some matches for the wildcard query")
	}
}

func TestIndexOnlyCandidatesSuperset(t *testing.T) {
	c := newCluster(t, 6, Config{})
	truth := publishAll(t, c, dblpDocs)
	q := pattern.MustParse(`//article//author[. contains "Ullman"]`)
	res, err := c.peers[2].Query(q, QueryOptions{IndexOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Error("IndexOnly should not compute final matches")
	}
	// Every true answer document must be among the candidates.
	cand := map[sid.DocKey]bool{}
	for _, d := range res.Docs {
		cand[d] = true
	}
	for _, m := range truth(q) {
		if !cand[m.Doc] {
			t.Errorf("candidate set missed answer document %v", m.Doc)
		}
	}
	if res.IndexTime <= 0 || res.Total <= 0 {
		t.Error("timings not recorded")
	}
}

func TestStrategiesReduceTraffic(t *testing.T) {
	// A selective keyword over a large list: DB Reducer must ship far
	// fewer posting bytes than the conventional plan (Figure 7(a)/(b)).
	var docs []string
	for i := 0; i < 120; i++ {
		author := "Someone Else"
		if i == 7 || i == 63 {
			author = "Jeffrey Ullman"
		}
		docs = append(docs, fmt.Sprintf(
			`<dblp><article><author>%s</author><title>Paper %d about things</title></article></dblp>`, author, i))
	}
	q := pattern.MustParse(`//article//author[. contains "Ullman"]`)

	run := func(strategy Strategy) (postBytes, filterBytes int64, matches int) {
		c := newCluster(t, 8, Config{})
		truth := publishAll(t, c, docs)
		c.net.Collector.Reset()
		res, err := c.peers[3].Query(q, QueryOptions{Strategy: strategy, IndexOnly: true})
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		_ = truth
		filt := c.net.Collector.Bytes(metrics.FiltersAB) + c.net.Collector.Bytes(metrics.FiltersDB)
		return c.net.Collector.Bytes(metrics.Postings), filt, res.IndexMatches
	}

	basePost, baseFilt, baseMatches := run(Conventional)
	if baseFilt != 0 {
		t.Errorf("conventional plan should ship no filters, got %d bytes", baseFilt)
	}
	dbPost, dbFilt, dbMatches := run(DBReducer)
	if dbMatches != baseMatches {
		t.Errorf("DB reducer changed the answer: %d vs %d index matches", dbMatches, baseMatches)
	}
	if dbFilt == 0 {
		t.Error("DB reducer shipped no filters")
	}
	if dbPost+dbFilt >= basePost {
		t.Errorf("DB reducer did not reduce traffic: %d+%d vs %d", dbPost, dbFilt, basePost)
	}
}

func TestPublishUnpublish(t *testing.T) {
	for _, mode := range publishModes {
		t.Run(mode.name, func(t *testing.T) {
			c := newCluster(t, 5, Config{})
			p := c.peers[0]
			key := mode.publish(t, c, []testDoc{{xml: `<a><b>hello world</b></a>`, uri: "x.xml"}})[0]
			if p.DocumentCount() != 1 {
				t.Fatal("document not stored")
			}
			uri, err := c.peers[3].URI(key)
			if err != nil || uri != "x.xml" {
				t.Fatalf("URI = %q (%v)", uri, err)
			}
			q := pattern.MustParse(`//a//b`)
			res, err := c.peers[2].Query(q, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != 1 {
				t.Fatalf("matches = %d", len(res.Matches))
			}
			if err := p.Unpublish(context.Background(), key.Doc); err != nil {
				t.Fatal(err)
			}
			res, err = c.peers[2].Query(q, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != 0 {
				t.Fatalf("matches after unpublish = %d", len(res.Matches))
			}
			if err := p.Unpublish(context.Background(), 999); err == nil {
				t.Error("unpublishing a missing doc should fail")
			}
		})
	}
}

func TestPublishBadXML(t *testing.T) {
	c := newCluster(t, 3, Config{})
	if _, err := c.peers[0].PublishXML([]byte("<broken"), "bad.xml"); err == nil {
		t.Fatal("broken XML should fail to publish")
	}
}

func TestProjectIndexQuery(t *testing.T) {
	// Wildcard in the middle: a/*/b becomes a//b.
	q := pattern.MustParse(`//a/*/b`)
	iq, err := ProjectIndexQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(iq.subtrees) != 1 {
		t.Fatalf("subtrees = %d", len(iq.subtrees))
	}
	nodes := iq.subtrees[0].Nodes()
	if len(nodes) != 2 || nodes[0].Term.Text != "a" || nodes[1].Term.Text != "b" {
		t.Fatalf("projection = %v", iq.subtrees[0].String())
	}
	if nodes[1].Axis != pattern.Descendant {
		t.Error("axis through wildcard must relax to descendant")
	}

	// Wildcard root with two branches: splits in two subtrees.
	q = pattern.MustParse(`//*[contains(.,'xml')]//title`)
	iq, err = ProjectIndexQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(iq.subtrees) != 2 {
		t.Fatalf("subtrees = %d", len(iq.subtrees))
	}

	// Fully-wildcard query cannot be projected.
	wq := &pattern.Query{Root: &pattern.Node{Term: xmltree.LabelTerm(pattern.Wildcard)}}
	if _, err := ProjectIndexQuery(wq); err == nil {
		t.Error("wildcard-only query should fail projection")
	}
}

func TestDocIntervalNarrowsDPPFetch(t *testing.T) {
	// One rare term co-occurring with a huge term: the doc interval from
	// the rare term's root should keep the huge term's fetch from
	// transferring most blocks.
	var docs []string
	for i := 0; i < 200; i++ {
		docs = append(docs, fmt.Sprintf(`<dblp><article><author>Person %d</author></article></dblp>`, i))
	}
	// The rare term appears only in one late document.
	docs = append(docs, `<dblp><article><author>Zarathustra</author></article></dblp>`)
	c := newCluster(t, 8, Config{UseDPP: true, DPP: dpp.Options{BlockSize: 64}})
	publishAll(t, c, docs)
	q := pattern.MustParse(`//article//author[. contains "Zarathustra"]`)
	res, err := c.peers[1].Query(q, QueryOptions{IndexOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var authorPlan *dpp.FetchPlan
	for _, pl := range res.Plans {
		if pl.Term == "l:author" {
			authorPlan = pl
		}
	}
	if authorPlan == nil {
		t.Fatal("no fetch plan for l:author")
	}
	if authorPlan.Blocks < 3 {
		t.Fatalf("author list should be partitioned, has %d blocks", authorPlan.Blocks)
	}
	if authorPlan.Fetched >= authorPlan.Blocks {
		t.Errorf("doc-interval filter fetched %d of %d blocks", authorPlan.Fetched, authorPlan.Blocks)
	}
	if len(res.Docs) != 1 {
		t.Errorf("candidates = %v", res.Docs)
	}
}

// TestAnswerFormatMixedVersions runs full queries across the two
// phase-two reply formats: a new client against document peers that
// ignore its format flag (and so answer in the tuple format), and an
// old client's flagless requests against new peers. Both return the
// oracle's answers.
func TestAnswerFormatMixedVersions(t *testing.T) {
	c := newCluster(t, 4, Config{})
	var docs []string
	for _, d := range (workload.DBLP{Seed: 3, Records: 200}).Documents() {
		docs = append(docs, xmltree.Serialize(d.Doc))
	}
	truth := publishAll(t, c, docs)
	client := c.peers[0]
	queries := []string{`//article[//year]//author`, `//dblp//title[. contains "xml"]`, `//article//author[. contains "Ullman"]`}

	t.Run("new client, old peers", func(t *testing.T) {
		for _, p := range c.peers {
			p.Node().Handle(procAnswer, func(ctx context.Context, from dht.Contact, key string, blob []byte) ([]byte, error) {
				// An old handler reads the query and the keys, nothing after.
				query, pos, err := readStr(blob, 0)
				if err != nil {
					return nil, err
				}
				keys, _, err := decodeDocKeys(blob, pos)
				if err != nil {
					return nil, err
				}
				out, err := p.handleAnswer(ctx, from, key, append(appendStr(nil, query), encodeDocKeys(keys)...))
				if n, _, _ := readUint(out, 0); err == nil && n == groupedAnswers {
					t.Errorf("a flagless request was answered in the grouped format")
				}
				return out, err
			})
		}
		defer func() {
			for _, p := range c.peers {
				p.Node().Handle(procAnswer, p.handleAnswer)
			}
		}()
		for _, s := range queries {
			q := pattern.MustParse(s)
			res, err := client.Query(q, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if want := truth(q); len(want) == 0 || !reflect.DeepEqual(res.Matches, want) {
				t.Errorf("%s: %d answers, oracle %d", s, len(res.Matches), len(want))
			}
		}
	})

	t.Run("old client, new peers", func(t *testing.T) {
		ctx := context.Background()
		for _, s := range queries {
			q := pattern.MustParse(s)
			res, err := client.Query(q, QueryOptions{IndexOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			// The old client's phase two: the query and the keys, no flag.
			byPeer := map[sid.PeerID][]sid.DocKey{}
			for _, d := range res.Docs {
				byPeer[d.Peer] = append(byPeer[d.Peer], d)
			}
			var got []twigjoin.Match
			for pid, keys := range byPeer {
				contact, err := client.contactOf(ctx, pid)
				if err != nil {
					t.Fatal(err)
				}
				out, err := client.node.CallProcOn(ctx, contact, "", procAnswer, append(appendStr(nil, q.String()), encodeDocKeys(keys)...))
				if err != nil {
					t.Fatal(err)
				}
				if n, _, _ := readUint(out, 0); n == groupedAnswers {
					t.Fatalf("peer %d answered a flagless request in the grouped format", pid)
				}
				ms, _, err := decodeMatches(out)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, ms...)
			}
			sortMatches(got)
			if want := truth(q); len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d answers, oracle %d", s, len(got), len(want))
			}
		}
	})
}

func TestCodecRoundTrips(t *testing.T) {
	ms := []twigjoin.Match{
		{Doc: sid.DocKey{Peer: 1, Doc: 2}, Postings: []sid.Posting{
			{Peer: 1, Doc: 2, SID: sid.SID{Start: 1, End: 4, Level: 0}},
			{Peer: 1, Doc: 2, SID: sid.SID{Start: 2, End: 3, Level: 1}},
		}},
		{Doc: sid.DocKey{Peer: 3, Doc: 4}},
	}
	// The golden strings pin the wire bytes: a mixed-version cluster
	// must keep answering, so none of these encodings may drift.
	enc := encodeMatches(ms)
	if want := "02010202000000010000000200000001000000040000000000010000000200000002000000030001030400"; hex.EncodeToString(enc) != want {
		t.Errorf("match-list wire bytes changed:\n got %x\nwant %s", enc, want)
	}
	got, _, err := decodeMatches(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ms) {
		t.Fatalf("matches round trip: %v vs %v", got, ms)
	}
	// The grouped format: the marker, one group (document (1,2), one
	// tuple of width 2), each element as start, end-start, level; then
	// the cost trailer. The tuple format of the same answers is the
	// golden string's first match.
	sids := []sid.SID{ms[0].Postings[0].SID, ms[0].Postings[1].SID}
	groups := []answerGroup{{doc: ms[0].Doc, tuples: 1}}
	grouped := appendAnswerStats(encodeAnswers(answerFormatGrouped, groups, 2, sids), answerStats{docsEvaluated: 1, elementsScanned: 7})
	if want := "ffffffffffffffffff0101010201020103000201010107"; hex.EncodeToString(grouped) != want {
		t.Errorf("grouped wire bytes changed:\n got %x\nwant %s", grouped, want)
	}
	if tuples := encodeAnswers(0, groups, 2, sids); !reflect.DeepEqual(tuples, encodeMatches(ms[:1])) {
		t.Errorf("tuple-format answers %x, want %x", tuples, encodeMatches(ms[:1]))
	}
	got, st, err := decodeMatches(grouped)
	if err != nil || !reflect.DeepEqual(got, ms[:1]) || st != (answerStats{docsEvaluated: 1, elementsScanned: 7}) {
		t.Fatalf("grouped round trip: %v %+v (%v)", got, st, err)
	}
	keys := []sid.DocKey{{Peer: 1, Doc: 9}, {Peer: 7, Doc: 0}}
	gk, _, err := decodeDocKeys(encodeDocKeys(keys), 0)
	if err != nil || !reflect.DeepEqual(gk, keys) {
		t.Fatalf("keys round trip: %v (%v)", gk, err)
	}
	// Spec round trip.
	q := pattern.MustParse(`//a//b[//c][. contains "w"]`)
	next := 0
	spec := buildSpec(q.Root, &next)
	dec, _, err := decodeSpec(encodeSpec(nil, spec), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, spec) {
		t.Fatalf("spec round trip: %+v vs %+v", dec, spec)
	}
	// Reduce request round trip.
	req := &reduceReq{session: "s1", queryAddr: "sim://9", abFP: 0.2, dbFP: 0.01,
		filterKind: filterAB, filter: []byte{1, 2, 3}, spec: spec}
	if want := "0273310773696d3a2f2f39c09a0c904e01000301020300036c3a610101036c3a620202036c3a63000303773a7700"; hex.EncodeToString(req.encode()) != want {
		t.Errorf("reduce-request wire bytes changed:\n got %x\nwant %s", req.encode(), want)
	}
	// The traffic class of a filter message derives from its proc name.
	if procs := [...]string{procABReduce, procDBReduce, procHybridAB, procHybridDB, procPush}; procs !=
		[...]string{"filter:abreduce", "filter:dbreduce", "filter:hybrid-ab", "filter:hybrid-db", "stream:push"} {
		t.Errorf("strategy proc names changed: %v", procs)
	}
	rr, err := decodeReduceReq(req.encode())
	if err != nil {
		t.Fatal(err)
	}
	if rr.session != "s1" || rr.queryAddr != "sim://9" || rr.filterKind != filterAB ||
		!reflect.DeepEqual(rr.filter, req.filter) || !reflect.DeepEqual(rr.spec, spec) {
		t.Fatalf("reduce request round trip: %+v", rr)
	}
	if rr.abFP != 0.2 || rr.dbFP != 0.01 {
		t.Fatalf("fp round trip: %v %v", rr.abFP, rr.dbFP)
	}
}

func TestSubQuerySelectionHeuristic(t *testing.T) {
	c := newCluster(t, 8, Config{})
	// Many titles and authors; "ullman" is rare.
	var docs []string
	for i := 0; i < 30; i++ {
		a := "Common Name"
		if i == 3 {
			a = "Ullman"
		}
		docs = append(docs, fmt.Sprintf(`<dblp><article><title>T%d</title><author>%s</author></article></dblp>`, i, a))
	}
	truth := publishAll(t, c, docs)
	q := pattern.MustParse(`//article[//title]//author[. contains "Ullman"]`)
	res, err := c.peers[1].Query(q, QueryOptions{Strategy: SubQueryReducer})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matches
	sortMatches(got)
	want := truth(q)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sub-query reducer:\n got %v\nwant %v", got, want)
	}
}

func TestUnpublishWithDPP(t *testing.T) {
	for _, mode := range publishModes {
		t.Run(mode.name, func(t *testing.T) {
			c := newCluster(t, 8, Config{UseDPP: true, DPP: dpp.Options{BlockSize: 8}})
			p := c.peers[0]
			var docs []testDoc
			for i := 0; i < 10; i++ {
				docs = append(docs, testDoc{
					xml: fmt.Sprintf(`<dblp><article><author>Person %d</author><title>T%d</title></article></dblp>`, i, i),
					uri: fmt.Sprintf("d%d.xml", i),
				})
			}
			keys := mode.publish(t, c, docs)
			q := pattern.MustParse(`//article//author`)
			res, err := c.peers[3].Query(q, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != 10 {
				t.Fatalf("before unpublish: %d matches", len(res.Matches))
			}
			for i := 0; i < 5; i++ {
				if err := p.Unpublish(context.Background(), keys[i].Doc); err != nil {
					t.Fatal(err)
				}
			}
			res, err = c.peers[3].Query(q, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != 5 {
				t.Fatalf("after unpublish: %d matches, want 5", len(res.Matches))
			}
		})
	}
}

func TestAutoStrategy(t *testing.T) {
	var docs []string
	for i := 0; i < 100; i++ {
		author := "Common Person"
		if i == 42 {
			author = "Jeffrey Ullman"
		}
		docs = append(docs, fmt.Sprintf(
			`<dblp><article><author>%s</author><title>T%d</title></article></dblp>`, author, i))
	}
	c := newCluster(t, 8, Config{})
	truth := publishAll(t, c, docs)

	// Selective query: the rare keyword makes AutoStrategy filter, so
	// posting traffic must be well below the conventional plan's.
	q := pattern.MustParse(`//article//author[. contains "Ullman"]`)
	c.net.Collector.Reset()
	resAuto, err := c.peers[2].Query(q, QueryOptions{Strategy: AutoStrategy, IndexOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	autoBytes := c.net.Collector.Bytes(metrics.Postings)
	c.net.Collector.Reset()
	resConv, err := c.peers[2].Query(q, QueryOptions{IndexOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	convBytes := c.net.Collector.Bytes(metrics.Postings)
	if resAuto.IndexMatches != resConv.IndexMatches {
		t.Fatalf("auto changed the answer: %d vs %d", resAuto.IndexMatches, resConv.IndexMatches)
	}
	if autoBytes >= convBytes {
		t.Errorf("auto (%d B) should undercut conventional (%d B) on a selective query", autoBytes, convBytes)
	}

	// Non-selective query: all lists comparable, AutoStrategy must fall
	// back to the conventional plan (no filter traffic).
	q2 := pattern.MustParse(`//article//title`)
	c.net.Collector.Reset()
	if _, err := c.peers[2].Query(q2, QueryOptions{Strategy: AutoStrategy, IndexOnly: true}); err != nil {
		t.Fatal(err)
	}
	filt := c.net.Collector.Bytes(metrics.FiltersAB) + c.net.Collector.Bytes(metrics.FiltersDB)
	if filt != 0 {
		t.Errorf("auto shipped %d filter bytes on a non-selective query", filt)
	}
	_ = truth
}

func TestAllowPartialOnPeerFailure(t *testing.T) {
	c := newCluster(t, 6, Config{})
	// Two docs at two different peers.
	if _, err := c.peers[0].PublishXML([]byte(`<a><b>one</b></a>`), "d0.xml"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.peers[1].PublishXML([]byte(`<a><b>two</b></a>`), "d1.xml"); err != nil {
		t.Fatal(err)
	}
	q := pattern.MustParse(`//a//b`)
	res, err := c.peers[4].Query(q, QueryOptions{})
	if err != nil || len(res.Matches) != 2 {
		t.Fatalf("healthy query: %d matches (%v)", len(res.Matches), err)
	}
	// Kill peer 0: its document's answers become unreachable.
	c.net.Partition(c.peers[0].Node().Self().Addr)

	if _, err := c.peers[4].Query(q, QueryOptions{}); err == nil {
		t.Fatal("strict query should fail when a document peer is down")
	}
	res, err = c.peers[4].Query(q, QueryOptions{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete || res.FailedPeers != 1 {
		t.Fatalf("partial result flags: incomplete=%v failed=%d", res.Incomplete, res.FailedPeers)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("partial matches = %d, want 1 (the surviving peer's)", len(res.Matches))
	}
}

func TestTypeFilteringSkipsBlocks(t *testing.T) {
	for _, mode := range publishModes {
		t.Run(mode.name, func(t *testing.T) {
			c := newCluster(t, 8, Config{UseDPP: true, DPP: dpp.Options{BlockSize: 32}})
			// Two document types sharing the author term; the booktitle
			// term exists only in proceedings-type documents. Every peer
			// publishes both types, so a batch holds both.
			var docs []testDoc
			for i := 0; i < 60; i++ {
				d := testDoc{peer: i % len(c.peers), uri: fmt.Sprintf("d%d.xml", i)}
				if i%3 != 0 {
					d.xml = fmt.Sprintf(`<dblp><article><author>Person %d</author><journal>J</journal></article></dblp>`, i)
					d.dtype = "journal-article"
				} else {
					d.xml = fmt.Sprintf(`<dblp><inproceedings><author>Person %d</author><booktitle>C</booktitle></inproceedings></dblp>`, i)
					d.dtype = "proceedings"
				}
				docs = append(docs, d)
			}
			mode.publish(t, c, docs)
			// author appears in both types, booktitle only in proceedings:
			// the automatic intersection restricts author's fetch to
			// proceedings blocks.
			q := pattern.MustParse(`//inproceedings[//booktitle]//author`)
			res, err := c.peers[1].Query(q, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != 20 {
				t.Fatalf("matches = %d, want 20", len(res.Matches))
			}
			// Explicit type constraint excluding every document: nothing
			// fetched.
			res, err = c.peers[1].Query(q, QueryOptions{DocType: "no-such-type", IndexOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Docs) != 0 {
				t.Fatalf("type-excluded query returned %d docs", len(res.Docs))
			}
			for _, pl := range res.Plans {
				if pl.Fetched != 0 {
					t.Errorf("term %s fetched %d blocks despite type exclusion", pl.Term, pl.Fetched)
				}
			}
		})
	}
}

func TestParallelJoinMatchesSequential(t *testing.T) {
	c := newCluster(t, 10, Config{UseDPP: true, DPP: dpp.Options{BlockSize: 16}, Parallel: 2})
	var docs []string
	for i := 0; i < 80; i++ {
		author := fmt.Sprintf("Person %d", i)
		if i%9 == 0 {
			author = "Jeffrey Ullman"
		}
		docs = append(docs, fmt.Sprintf(
			`<dblp><article><author>%s</author><title>T%d</title></article></dblp>`, author, i))
	}
	truth := publishAll(t, c, docs)
	for _, qs := range []string{
		`//article//author[. contains "Ullman"]`,
		`//article//author`,
		`//dblp[//title]//author`,
	} {
		q := pattern.MustParse(qs)
		want := truth(q)
		seq, err := c.peers[1].Query(q, QueryOptions{})
		if err != nil {
			t.Fatalf("%s sequential: %v", qs, err)
		}
		par, err := c.peers[1].Query(q, QueryOptions{ParallelJoin: 4})
		if err != nil {
			t.Fatalf("%s parallel: %v", qs, err)
		}
		sortMatches(seq.Matches)
		sortMatches(par.Matches)
		if !reflect.DeepEqual(seq.Matches, want) {
			t.Fatalf("%s: sequential diverges from ground truth", qs)
		}
		if !reflect.DeepEqual(par.Matches, want) {
			t.Fatalf("%s: parallel join diverges: %d vs %d matches", qs, len(par.Matches), len(want))
		}
		if par.IndexMatches != seq.IndexMatches {
			t.Errorf("%s: index matches differ: %d vs %d", qs, par.IndexMatches, seq.IndexMatches)
		}
	}
}

func TestParallelJoinVectorCuts(t *testing.T) {
	// cutVectors produces disjoint, covering, whole-document ranges.
	root := &dpp.Root{Blocks: []dpp.BlockRef{
		{Lo: sid.Posting{Peer: 1, Doc: 0}, Hi: sid.Posting{Peer: 1, Doc: 10}},
		{Lo: sid.Posting{Peer: 1, Doc: 10}, Hi: sid.Posting{Peer: 1, Doc: 25}},
		{Lo: sid.Posting{Peer: 1, Doc: 26}, Hi: sid.Posting{Peer: 2, Doc: 4}},
		{Lo: sid.Posting{Peer: 2, Doc: 5}, Hi: sid.Posting{Peer: 3, Doc: 0}},
	}}
	lo := sid.DocKey{Peer: 1, Doc: 3}
	hi := sid.DocKey{Peer: 2, Doc: 50}
	for _, maxV := range []int{1, 2, 3, 8} {
		vs := cutVectors(root, lo, hi, maxV)
		if len(vs) == 0 || len(vs) > maxV {
			t.Fatalf("maxV=%d: %d vectors", maxV, len(vs))
		}
		if vs[0].lo != lo || vs[len(vs)-1].hi != hi {
			t.Fatalf("maxV=%d: vectors do not span [%v,%v]: %v", maxV, lo, hi, vs)
		}
		for i := 1; i < len(vs); i++ {
			prev := vs[i-1].hi
			next := sid.DocKey{Peer: prev.Peer, Doc: prev.Doc + 1}
			if vs[i].lo != next {
				t.Fatalf("maxV=%d: gap or overlap between %v and %v", maxV, vs[i-1], vs[i])
			}
		}
	}
}

func TestPeerAccessorsAndPublishAt(t *testing.T) {
	c := newCluster(t, 5, Config{UseDPP: true, DPP: dpp.Options{BlockSize: 64}})
	p := c.peers[0]
	if p.ID() != 1 {
		t.Errorf("ID = %d", p.ID())
	}
	if p.DPP() == nil {
		t.Error("DPP manager should be set")
	}
	d, err := xmltree.ParseBytes([]byte(`<a><b>explicit id</b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	key, err := p.PublishAt(4242, d, "explicit.xml")
	if err != nil {
		t.Fatal(err)
	}
	if key.Doc != 4242 {
		t.Errorf("key = %v", key)
	}
	got, uri, ok := p.Document(4242)
	if !ok || got != d || uri != "explicit.xml" {
		t.Fatalf("Document(4242) = %v %q %v", got, uri, ok)
	}
	// Duplicate explicit id is rejected.
	if _, err := p.PublishAt(4242, d, "dup.xml"); err == nil {
		t.Error("duplicate PublishAt id should fail")
	}
	// And it is queryable end to end.
	res, err := c.peers[2].Query(pattern.MustParse(`//a//b[. contains "explicit"]`), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("matches = %d", len(res.Matches))
	}
}

func TestHandleCountWithDPPBlocks(t *testing.T) {
	c := newCluster(t, 6, Config{UseDPP: true, DPP: dpp.Options{BlockSize: 8}})
	var docs []string
	for i := 0; i < 40; i++ {
		docs = append(docs, fmt.Sprintf(`<dblp><article><author>P%d</author></article></dblp>`, i))
	}
	publishAll(t, c, docs)
	n, err := c.peers[1].termCount(context.Background(), "l:author")
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("termCount over blocks = %d, want 40", n)
	}
	if n, err := c.peers[1].termCount(context.Background(), "l:absent"); err != nil || n != 0 {
		t.Fatalf("absent term count = %d (%v)", n, err)
	}
}

func TestApplyIncomingRejectsGarbage(t *testing.T) {
	if _, err := applyIncoming(&reduceReq{filterKind: filterAB, filter: []byte{1}}, nil); err == nil {
		t.Error("corrupt AB filter should fail")
	}
	if _, err := applyIncoming(&reduceReq{filterKind: filterDB, filter: []byte{1}}, nil); err == nil {
		t.Error("corrupt DB filter should fail")
	}
	if _, err := applyIncoming(&reduceReq{filterKind: 99}, nil); err == nil {
		t.Error("unknown filter kind should fail")
	}
}
