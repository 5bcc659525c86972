package kadop

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

const facadeDoc = `<dblp>
  <article><author>Jeffrey Ullman</author><title>Database systems</title></article>
  <article><author>Serge Abiteboul</author><title>XML querying</title></article>
</dblp>`

func TestSimClusterEndToEnd(t *testing.T) {
	c, err := NewSimCluster(6, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Size() != 6 {
		t.Fatalf("Size = %d", c.Size())
	}
	if _, err := c.Peer(0).PublishXML([]byte(facadeDoc), "dblp.xml"); err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`//article//author[. contains "Ullman"]`)
	res, err := c.Peer(3).Query(q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("matches = %d", len(res.Matches))
	}
	if c.TrafficBytes("index") == 0 {
		t.Error("no indexing traffic recorded")
	}
	if !strings.Contains(c.TrafficReport(), "index") {
		t.Error("traffic report missing classes")
	}
	c.ResetTraffic()
	if c.TrafficBytes("index") != 0 {
		t.Error("reset did not clear traffic")
	}
}

func TestSimClusterStrategiesAgree(t *testing.T) {
	c, err := NewSimCluster(8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 30; i++ {
		author := "Jane Doe"
		if i == 11 {
			author = "Jeffrey Ullman"
		}
		doc := fmt.Sprintf(`<dblp><article><author>%s</author><title>t%d</title></article></dblp>`, author, i)
		if _, err := c.Peer(i%8).PublishXML([]byte(doc), fmt.Sprintf("d%d.xml", i)); err != nil {
			t.Fatal(err)
		}
	}
	q := MustParseQuery(`//article//author[. contains "Ullman"]`)
	want := -1
	for _, s := range []Strategy{Conventional, ABReducer, DBReducer, BloomReducer, SubQueryReducer} {
		res, err := c.Peer(2).Query(q, QueryOptions{Strategy: s})
		if err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		if want == -1 {
			want = len(res.Matches)
		} else if len(res.Matches) != want {
			t.Errorf("strategy %v found %d matches, want %d", s, len(res.Matches), want)
		}
	}
	if want != 1 {
		t.Errorf("expected exactly 1 match, got %d", want)
	}
}

func TestParseQueryErrors(t *testing.T) {
	if _, err := ParseQuery("not a query"); err == nil {
		t.Error("invalid query should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParseQuery should panic on bad input")
		}
	}()
	MustParseQuery("///")
}

func TestTCPPeersViaFacade(t *testing.T) {
	a, err := NewTCPPeer("127.0.0.1:0", 1, "", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Node().Close()
	b, err := NewTCPPeer("127.0.0.1:0", 2, "", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Node().Close()
	// Announce once the overlay is formed: directory entries are stored
	// at their key's current home and do not migrate on later joins.
	if err := Join(b, a.Node().Self().Addr); err != nil {
		t.Fatal(err)
	}
	if err := Join(a, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := a.PublishXML([]byte(facadeDoc), "dblp.xml"); err != nil {
		t.Fatal(err)
	}
	res, err := b.Query(MustParseQuery(`//article//title`), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches over TCP = %d", len(res.Matches))
	}
}

// TestTCPStrategiesAgree runs every query plan over loopback TCP, the
// transport kadop-peer and kadop-query use: the Bloom reducers travel
// as application procedures (the filters, and "stream:push", a unary
// procedure named for its traffic class), so a transport that routed a
// request by its name instead of its message type would fail them here
// while every simulated run passed.
func TestTCPStrategiesAgree(t *testing.T) {
	peers := make([]*Peer, 4)
	for i := range peers {
		p, err := NewTCPPeer("127.0.0.1:0", PeerID(i+1), "", Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers[i] = p
	}
	// Every peer joins before any announces: a directory entry lands at
	// the peer that is its key's home when it is written.
	for _, p := range peers[1:] {
		if err := p.Node().Bootstrap(peers[0].Node().Self()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers {
		if err := p.Announce(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		var doc strings.Builder
		doc.WriteString("<dblp>")
		for j := 0; j < 3; j++ {
			author := fmt.Sprintf("Author %d-%d", i, j)
			if (i == 3 && j == 1) || i == 8 {
				author = "Jeffrey Ullman"
			}
			fmt.Fprintf(&doc, "<article><author>%s</author><title>t%d</title></article>", author, j)
		}
		doc.WriteString("<inproceedings><author>Jeffrey Ullman</author></inproceedings></dblp>")
		if _, err := peers[i%4].PublishXML([]byte(doc.String()), fmt.Sprintf("d%d.xml", i)); err != nil {
			t.Fatal(err)
		}
	}
	q := MustParseQuery(`//article//author[. contains "Ullman"]`)
	answers := func(s Strategy) []string {
		res, err := peers[1].Query(q, QueryOptions{Strategy: s})
		if err != nil {
			t.Errorf("strategy %v over TCP: %v", s, err)
			return nil
		}
		out := make([]string, len(res.Matches))
		for i, m := range res.Matches {
			out[i] = fmt.Sprint(m)
		}
		slices.Sort(out)
		return out
	}
	want := answers(Conventional)
	if len(want) != 4 {
		t.Fatalf("conventional plan: %d answers %v, want 4", len(want), want)
	}
	for _, s := range []Strategy{ABReducer, DBReducer, BloomReducer, SubQueryReducer, AutoStrategy} {
		if got := answers(s); got != nil && !slices.Equal(got, want) {
			t.Errorf("strategy %v over TCP: %v, want %v", s, got, want)
		}
	}
}

func TestIntensionalFacade(t *testing.T) {
	c, err := NewSimCluster(4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	files := map[string][]byte{
		"abs.xml": []byte(`<abstract>an interface story</abstract>`),
	}
	resolve := func(uri string) ([]byte, error) {
		b, ok := files[uri]
		if !ok {
			return nil, fmt.Errorf("no %s", uri)
		}
		return b, nil
	}
	var ixs []*Intensional
	for i := 0; i < 4; i++ {
		ixs = append(ixs, NewIntensional(c.Peer(i), Fundex, resolve))
	}
	host := `<!DOCTYPE article [<!ENTITY a SYSTEM "abs.xml">]>
<article><title>a system paper</title>&a;</article>`
	if _, err := ixs[0].Publish([]byte(host), "host.xml"); err != nil {
		t.Fatal(err)
	}
	ans, err := ixs[2].Query(MustParseQuery(
		`//article[contains(.//title,'system') and contains(.//abstract,'interface')]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Matches) == 0 {
		t.Fatal("intensional query found no answers")
	}
}
