package kadop

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"kadop/internal/dht"
	"kadop/internal/dpp"
	"kadop/internal/pattern"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
	"kadop/internal/xmltree"
)

// testDoc is one document of a publish-entry-point test: its XML, and
// the peer (by index) that publishes it.
type testDoc struct {
	peer            int
	xml, uri, dtype string
}

// publishModes are the two ways document bytes enter the publish
// pipeline — one PublishXML call per document, and one PublishXMLBatch
// call per publishing peer. Each publishes docs in order and returns
// their keys in the same order. Tests of publish outcomes run over
// both.
var publishModes = []struct {
	name    string
	publish func(t testing.TB, c *cluster, docs []testDoc) []sid.DocKey
}{
	{"each", func(t testing.TB, c *cluster, docs []testDoc) []sid.DocKey {
		t.Helper()
		keys := make([]sid.DocKey, len(docs))
		for i, d := range docs {
			key, err := c.peers[d.peer].PublishXMLTyped([]byte(d.xml), d.uri, d.dtype)
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = key
		}
		return keys
	}},
	{"batch", func(t testing.TB, c *cluster, docs []testDoc) []sid.DocKey {
		t.Helper()
		keys := make([]sid.DocKey, len(docs))
		for pi, p := range c.peers {
			var batch []BatchDoc
			var at []int
			for i, d := range docs {
				if d.peer == pi {
					batch = append(batch, BatchDoc{XML: []byte(d.xml), URI: d.uri, Dtype: d.dtype})
					at = append(at, i)
				}
			}
			got, err := p.PublishXMLBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for j, i := range at {
				keys[i] = got[j]
			}
		}
		return keys
	}},
}

// TestPublishSingleVsBatch is the differential test of the two entry
// points: the same seeded documents (two types, terms shared across
// documents), published one call each into one cluster and one call
// per peer into an identical one, must leave the same index, the same
// publisher statistics, the same directory and the same answers.
func TestPublishSingleVsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var docs []testDoc
	for i := 0; i < 48; i++ {
		author := fmt.Sprintf("Person %d", rng.Intn(12))
		if rng.Intn(8) == 0 {
			author = "Jeffrey Ullman"
		}
		d := testDoc{peer: rng.Intn(3), uri: fmt.Sprintf("d%d.xml", i)}
		if rng.Intn(2) == 0 {
			d.dtype = "journal-article"
			d.xml = fmt.Sprintf(`<dblp><article><author>%s</author><title>Paper %d on XML</title><journal>J%d</journal></article></dblp>`,
				author, i, rng.Intn(3))
		} else {
			d.dtype = "proceedings"
			d.xml = fmt.Sprintf(`<dblp><inproceedings><author>%s</author><title>Talk %d on XML</title><booktitle>C%d</booktitle></inproceedings></dblp>`,
				author, i, rng.Intn(3))
		}
		docs = append(docs, d)
	}
	// The terms to compare are those the documents yield; the posting
	// ids do not change the terms.
	var terms []string
	for _, d := range docs {
		doc, err := xmltree.ParseBytes([]byte(d.xml))
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range xmltree.Extract(doc, 1, 0, xmltree.ExtractOptions{}) {
			terms = append(terms, tp.Term.Key())
		}
	}
	slices.Sort(terms)
	terms = slices.Compact(terms)

	type outcome struct {
		keys    []sid.DocKey
		uris    []string
		lists   map[string]postings.List
		answers map[string][]string
	}
	observe := func(publish func(testing.TB, *cluster, []testDoc) []sid.DocKey) outcome {
		c := newCluster(t, 6, Config{UseDPP: true, DPP: dpp.Options{BlockSize: 8}})
		out := outcome{keys: publish(t, c, docs), lists: map[string]postings.List{}, answers: map[string][]string{}}
		reader := c.peers[5]
		for _, k := range out.keys {
			uri, err := reader.URI(k)
			if err != nil {
				t.Fatal(err)
			}
			out.uris = append(out.uris, uri)
		}
		for _, term := range terms {
			s, _, err := reader.DPP().Fetch(term, dpp.FetchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if out.lists[term], err = postings.Drain(s); err != nil {
				t.Fatal(err)
			}
		}
		for _, qs := range paperQueries {
			res, err := reader.Query(pattern.MustParse(qs), QueryOptions{})
			if err != nil {
				t.Fatalf("Query(%s): %v", qs, err)
			}
			sortMatches(res.Matches)
			out.answers[qs] = []string{fmt.Sprint(res.Docs), fmt.Sprint(res.Matches)}
		}
		return out
	}
	each, batch := observe(publishModes[0].publish), observe(publishModes[1].publish)

	if !reflect.DeepEqual(each.keys, batch.keys) {
		t.Errorf("document keys differ:\n each  %v\n batch %v", each.keys, batch.keys)
	}
	if !reflect.DeepEqual(each.uris, batch.uris) {
		t.Errorf("directory entries differ:\n each  %v\n batch %v", each.uris, batch.uris)
	}
	if len(each.lists) < 20 {
		t.Fatalf("only %d terms indexed", len(each.lists))
	}
	for _, term := range terms {
		if len(each.lists[term]) == 0 {
			t.Errorf("term %q: no postings indexed", term)
		}
		if !reflect.DeepEqual(each.lists[term], batch.lists[term]) {
			t.Errorf("term %q: %d postings published singly, %d batched", term, len(each.lists[term]), len(batch.lists[term]))
		}
	}
	if n := len(each.lists["l:author"]); n != len(docs) {
		t.Errorf("l:author holds %d postings, want %d", n, len(docs))
	}
	if !reflect.DeepEqual(each.answers, batch.answers) {
		t.Errorf("answers differ:\n each  %v\n batch %v", each.answers, batch.answers)
	}
	if each.answers[`//article//author[. contains "Ullman"]`][1] == "[]" {
		t.Error("the corpus should answer the Ullman query")
	}
}

// TestRestartReplaysBothJournalForms publishes the same document once
// by PublishXML and once inside a PublishXMLBatch on a durable peer:
// after a restart from the data directory both must come back, under
// their ids, URIs and types, as the same tree.
func TestRestartReplaysBothJournalForms(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir}
	start := func() *Peer {
		node, err := dht.NewNode(dht.NewNetwork().NewEndpoint(), store.NewMem(), dht.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPeer(node, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	raw := []byte(`<dblp><article><author>Jeffrey Ullman</author><title>Both ways</title></article></dblp>`)
	other := []byte(`<dblp><book><title>Batch companion</title></book></dblp>`)

	p := start()
	single, err := p.PublishXMLTyped(raw, "single.xml", "journal-article")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := p.PublishXMLBatch([]BatchDoc{
		{XML: other, URI: "other.xml"},
		{XML: raw, URI: "batched.xml", Dtype: "journal-article"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	r := start()
	defer r.Close()
	if r.DocumentCount() != 3 {
		t.Fatalf("restart replayed %d documents, want 3", r.DocumentCount())
	}
	postingsOf := func(k sid.DocKey, uri string) []xmltree.TermPosting {
		doc, got, ok := r.Document(k.Doc)
		if !ok || got != uri {
			t.Fatalf("document %v after restart: uri %q, present %v; want %q", k, got, ok, uri)
		}
		return xmltree.Extract(doc, 1, 0, cfg.Extract)
	}
	if !reflect.DeepEqual(postingsOf(single, "single.xml"), postingsOf(batch[1], "batched.xml")) {
		t.Error("the singly journaled and the batch-journaled copy replayed as different trees")
	}
	postingsOf(batch[0], "other.xml")
	r.mu.Lock()
	types := []string{r.docTypes[single.Doc], r.docTypes[batch[0].Doc], r.docTypes[batch[1].Doc]}
	r.mu.Unlock()
	if want := []string{"journal-article", "", "journal-article"}; !reflect.DeepEqual(types, want) {
		t.Errorf("replayed types = %q, want %q", types, want)
	}
	// Ids continue after the replayed ones.
	next, err := r.PublishXML(other, "next.xml")
	if err != nil {
		t.Fatal(err)
	}
	if next.Doc != batch[1].Doc+1 {
		t.Errorf("first id after restart = %d, want %d", next.Doc, batch[1].Doc+1)
	}
}

// TestDataDirRefusesOldRootFile starts a durable DPP peer on a data
// directory holding a file of an earlier build's format — dpp.json,
// the whole-file root state, or state.jsonl, the JSON-lines peer state:
// the peer refuses it, naming the file, rather than starting without
// the roots that locate its overflow blocks or the documents it serves.
func TestDataDirRefusesOldRootFile(t *testing.T) {
	for old, content := range map[string]string{
		"dpp.json":    `{"roots":{},"next":3}`,
		"state.jsonl": `{"kind":"dir","key":"peer:1","blob":"eA=="}` + "\n",
	} {
		t.Run(old, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, old), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			node, err := dht.NewNode(dht.NewNetwork().NewEndpoint(), store.NewMem(), dht.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			p, err := NewPeer(node, 1, Config{DataDir: dir, UseDPP: true})
			if err == nil {
				p.Close()
				t.Fatalf("peer started on a data directory holding %s", old)
			}
			if !strings.Contains(err.Error(), old) {
				t.Fatalf("refusal does not name the file: %v", err)
			}
		})
	}
}

// durablePeer starts a one-node peer on dir.
func durablePeer(t *testing.T, dir string) (*Peer, error) {
	t.Helper()
	node, err := dht.NewNode(dht.NewNetwork().NewEndpoint(), store.NewMem(), dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPeer(node, 1, Config{DataDir: dir})
	if err != nil {
		node.Close()
	}
	return p, err
}

// TestStateLogCorruptionFailsLoudly garbles the first of three
// documents in a durable peer's state.log: the restart fails, naming
// the log, and leaves the file as it was, where a reader that stopped
// at the bad record would come back with none of the three.
func TestStateLogCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	p, err := durablePeer(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if _, err := p.PublishXML([]byte(fmt.Sprintf(`<a><b>doc%d</b></a>`, i)), fmt.Sprintf("d%d.xml", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "state.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(data), "doc0")
	if i < 0 {
		t.Fatal("state.log does not hold the first document's bytes")
	}
	data[i] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := durablePeer(t, dir); err == nil {
		r.Close()
		t.Fatal("peer restarted over a corrupt state.log")
	} else if !strings.Contains(err.Error(), "state.log") {
		t.Fatalf("error does not name the log: %v", err)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(data) {
		t.Fatalf("the failed restart changed state.log (%v)", err)
	}
}

// TestUnpublishedIDNotReused unpublishes a durable peer's last
// document and restarts it: the log no longer holds the document, yet
// the next one gets a fresh id.
func TestUnpublishedIDNotReused(t *testing.T) {
	dir := t.TempDir()
	p, err := durablePeer(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := p.PublishXMLBatch([]BatchDoc{{XML: []byte(`<a>x</a>`), URI: "x.xml"}, {XML: []byte(`<a>y</a>`), URI: "y.xml"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Unpublish(context.Background(), keys[1].Doc); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := durablePeer(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.DocumentCount() != 1 {
		t.Fatalf("restart replayed %d documents, want 1", r.DocumentCount())
	}
	next, err := r.PublishXML([]byte(`<a>z</a>`), "z.xml")
	if err != nil {
		t.Fatal(err)
	}
	if next.Doc != keys[1].Doc+1 {
		t.Fatalf("first id after restart = %d, want %d", next.Doc, keys[1].Doc+1)
	}
}

// TestUnchangedDirPutWritesNothing re-puts one directory entry 100
// times unchanged, as a Reannounce of an unchanged peer does at every
// tick: the home's state.log does not grow. A changed entry still
// writes, and survives a restart.
func TestUnchangedDirPutWritesNothing(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	p, err := durablePeer(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "state.log")
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if err := p.dirPut(ctx, "doc:1:0", []byte("a.xml")); err != nil {
		t.Fatal(err)
	}
	before := size()
	for range 100 {
		if err := p.dirPut(ctx, "doc:1:0", []byte("a.xml")); err != nil {
			t.Fatal(err)
		}
	}
	if grown := size() - before; grown != 0 {
		t.Fatalf("100 unchanged re-puts grew state.log by %d bytes", grown)
	}
	if err := p.dirPut(ctx, "doc:1:0", []byte("b.xml")); err != nil {
		t.Fatal(err)
	}
	if size() == before {
		t.Fatal("a changed entry wrote nothing")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := durablePeer(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, err := r.dirGet(ctx, "doc:1:0"); err != nil || string(got) != "b.xml" {
		t.Fatalf("entry after restart: %q, %v", got, err)
	}
}

// TestUnpublishFailureKeepsDocument makes the home of one of a
// document's labels refuse deletes, so that Unpublish fails part-way.
// The postings go before the document, so the document stays published
// and the index answer for that label names a document its peer still
// serves; once the home accepts deletes again, a second Unpublish
// removes both.
func TestUnpublishFailureKeepsDocument(t *testing.T) {
	cen := &census{procs: map[string]int{}}
	c := censusClusterOf(t, cen, dht.Config{}, Config{})
	pub, querier := c.peers[0], c.peers[len(c.peers)-1]
	key, err := pub.PublishXML([]byte(`<a><b/><c/><d/><e/><f/></a>`), "u.xml")
	if err != nil {
		t.Fatal(err)
	}
	var label string
	var home dht.Contact
	for _, l := range []string{"a", "b", "c", "d", "e", "f"} {
		owner, err := pub.Node().Locate(xmltree.LabelTerm(l).Key())
		if err != nil {
			t.Fatal(err)
		}
		if owner.ID != pub.Node().Self().ID && owner.ID != querier.Node().Self().ID {
			label, home = l, owner
			break
		}
	}
	if label == "" {
		t.Fatal("bad fixture: the publisher or the querier is home to every label")
	}
	q := pattern.MustParse("//" + label)

	cen.mu.Lock()
	cen.refuse = map[string]bool{home.Addr: true}
	cen.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := pub.Unpublish(ctx, key.Doc); err == nil {
		t.Fatalf("Unpublish succeeded with the home of l:%s refusing deletes", label)
	}
	cen.mu.Lock()
	cen.refuse = nil
	cen.mu.Unlock()

	if _, _, ok := pub.Document(key.Doc); !ok {
		t.Fatal("a failed Unpublish dropped the document")
	}
	res, err := querier.Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].Doc != key {
		t.Fatalf("%s after a failed Unpublish: %v, want the one still-published document %v", q, res.Matches, key)
	}

	if err := pub.Unpublish(ctx, key.Doc); err != nil {
		t.Fatalf("retried Unpublish: %v", err)
	}
	if _, _, ok := pub.Document(key.Doc); ok {
		t.Fatal("the retried Unpublish kept the document")
	}
	if res, err = querier.Query(q, QueryOptions{}); err != nil || len(res.Matches) != 0 {
		t.Fatalf("%s after the retried Unpublish: %d answers (%v), want none", q, len(res.Matches), err)
	}
}

// TestUnpublishWithHomeDownLeavesNoAnswer stops the home of one of a
// document's labels while the document is unpublished. The delete
// routes around the stopped home, so when the home comes back it still
// holds the document's posting and the index names the document. An
// exact query, answered by the index join, must still not return it:
// the document's peer no longer publishes it.
func TestUnpublishWithHomeDownLeavesNoAnswer(t *testing.T) {
	cen := &census{procs: map[string]int{}}
	c := censusClusterOf(t, cen, dht.Config{}, Config{})
	pub, querier := c.peers[0], c.peers[len(c.peers)-1]
	key, err := pub.PublishXML([]byte(`<a><b/><c/><d/><e/><f/></a>`), "u.xml")
	if err != nil {
		t.Fatal(err)
	}
	var label string
	var home *Peer
	for _, l := range []string{"a", "b", "c", "d", "e", "f"} {
		owner, err := pub.Node().Locate(xmltree.LabelTerm(l).Key())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range c.peers[1 : len(c.peers)-1] {
			if p.Node().Self().ID == owner.ID {
				label, home = l, p
			}
		}
		if home != nil {
			break
		}
	}
	if home == nil {
		t.Fatal("bad fixture: the publisher or the querier is home to every label")
	}
	q := pattern.MustParse("//" + label)

	cen.mu.Lock()
	cen.down = map[string]bool{home.Node().Self().Addr: true}
	cen.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := pub.Unpublish(ctx, key.Doc); err != nil {
		t.Fatalf("bad fixture: Unpublish with the home of l:%s down: %v", label, err)
	}
	cen.mu.Lock()
	cen.down = nil
	cen.mu.Unlock()
	// The home comes back and makes itself known again.
	if _, err := home.Node().Lookup(home.Node().Self().ID); err != nil {
		t.Fatal(err)
	}

	idx, err := querier.Query(q, QueryOptions{IndexOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(idx.Docs, key) {
		t.Fatalf("bad fixture: the index no longer names %v after the home came back (%v)", key, idx.Docs)
	}
	res, err := querier.Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || res.Incomplete {
		t.Fatalf("%s after Unpublish: %v (incomplete %v), want no answer", q, res.Matches, res.Incomplete)
	}
}
