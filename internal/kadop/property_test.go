package kadop

// Property test: random twig queries over random generated documents.
// The distributed evaluation (index query + twig join over a DPP
// deployment with the block cache on) must agree exactly with
// xmltree.MatchPattern, a naive in-memory oracle that shares neither
// code nor algorithm with the query pipeline.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kadop/internal/dpp"
	"kadop/internal/pattern"
	"kadop/internal/sid"
	"kadop/internal/twigjoin"
	"kadop/internal/xmltree"
)

var (
	propLabels = []string{"a", "b", "c", "d", "e"}
	propWords  = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
)

// genDoc builds a random labeled tree over the small alphabet: depth at
// most 4, a bounded node budget, words sprinkled on about half the
// elements.
func genDoc(t *testing.T, rng *rand.Rand) *xmltree.Document {
	t.Helper()
	b := xmltree.NewBuilder()
	var rec func(depth int, budget *int)
	rec = func(depth int, budget *int) {
		b.Open(propLabels[rng.Intn(len(propLabels))])
		if rng.Intn(2) == 0 {
			b.Text(propWords[rng.Intn(len(propWords))])
		}
		for depth < 4 && *budget > 0 && rng.Intn(3) > 0 {
			*budget--
			rec(depth+1, budget)
		}
		b.Close()
	}
	budget := 6 + rng.Intn(10)
	rec(0, &budget)
	d, err := b.Document()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// genQuery builds a random twig: 1-7 element nodes with random axes,
// occasional wildcards and word-predicate leaves, retried until the
// query validates (a wildcard-only draw does not).
func genQuery(rng *rand.Rand) *pattern.Query {
	var rec func(depth int) *pattern.Node
	rec = func(depth int) *pattern.Node {
		term := xmltree.LabelTerm(propLabels[rng.Intn(len(propLabels))])
		if rng.Intn(5) == 0 {
			term = xmltree.LabelTerm(pattern.Wildcard)
		}
		axis := pattern.Child
		if rng.Intn(2) == 0 {
			axis = pattern.Descendant
		}
		n := &pattern.Node{Term: term, Axis: axis}
		if depth < 2 {
			for i := rng.Intn(3); i > 0; i-- {
				n.Children = append(n.Children, rec(depth+1))
			}
		}
		if rng.Intn(3) == 0 {
			n.Children = append(n.Children, &pattern.Node{
				Term: xmltree.WordTerm(propWords[rng.Intn(len(propWords))]),
				Axis: pattern.DescendantOrSelf,
			})
		}
		return n
	}
	for {
		q := &pattern.Query{Root: rec(0)}
		if q.Validate() == nil {
			return q
		}
	}
}

// checkRoundTrip checks that q's text parses back to q's nodes in q's
// pre-order: phase two ships the query as text, and its answer tuples
// must keep the columns of the client's query.
func checkRoundTrip(t *testing.T, q *pattern.Query) {
	t.Helper()
	nodes := func(q *pattern.Query) []string {
		var out []string
		for _, n := range q.Nodes() {
			out = append(out, n.Axis.String()+n.Term.Key())
		}
		return out
	}
	if got, want := nodes(pattern.MustParse(q.String())), nodes(q); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s parses back to nodes %v, want %v", q, got, want)
	}
}

// toOracle converts a pattern tree into the oracle's representation.
func toOracle(n *pattern.Node) *xmltree.PatternNode {
	axis := map[pattern.Axis]xmltree.PatternAxis{
		pattern.Child:            xmltree.PatternChild,
		pattern.Descendant:       xmltree.PatternDescendant,
		pattern.DescendantOrSelf: xmltree.PatternDescendantOrSelf,
	}[n.Axis]
	o := &xmltree.PatternNode{Term: n.Term, Axis: axis}
	for _, c := range n.Children {
		o.Children = append(o.Children, toOracle(c))
	}
	return o
}

func TestPropertyDistributedMatchesOracle(t *testing.T) {
	const (
		nDocs    = 30
		nQueries = 40
		seed     = 7
	)
	rng := rand.New(rand.NewSource(seed))
	c := newCluster(t, 6, Config{
		UseDPP:     true,
		DPP:        dpp.Options{BlockSize: 16},
		CacheBytes: 1 << 20,
	})

	type stored struct {
		key sid.DocKey
		doc *xmltree.Document
	}
	var all []stored
	for i := 0; i < nDocs; i++ {
		d := genDoc(t, rng)
		p := c.peers[i%len(c.peers)]
		key, err := p.Publish(d, fmt.Sprintf("gen%d.xml", i))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, stored{key, d})
	}

	oracle := func(q *pattern.Query) []twigjoin.Match {
		root := toOracle(q.Root)
		var out []twigjoin.Match
		for _, s := range all {
			for _, tuple := range xmltree.MatchPattern(s.doc, root) {
				ps := make([]sid.Posting, len(tuple))
				for i, e := range tuple {
					ps[i] = sid.Posting{Peer: s.key.Peer, Doc: s.key.Doc, SID: e}
				}
				out = append(out, twigjoin.Match{Doc: s.key, Postings: ps})
			}
		}
		sortMatches(out)
		return out
	}

	for _, s := range []string{`//a[/*][. contains "x"]//c`, `//a[//c][. contains "x"]`} {
		checkRoundTrip(t, pattern.MustParse(s))
	}
	nonEmpty := 0
	for qi := 0; qi < nQueries; qi++ {
		q := genQuery(rng)
		checkRoundTrip(t, q)
		want := oracle(q)
		if len(want) > 0 {
			nonEmpty++
		}
		querier := c.peers[rng.Intn(len(c.peers))]
		// Run twice: the first pass fills the block cache, the second
		// answers from it — both must agree with the oracle exactly.
		for pass, name := range []string{"cold", "warm"} {
			res, err := querier.Query(q, QueryOptions{})
			if err != nil {
				t.Fatalf("query %d (%s) %s pass: %v", qi, q, name, err)
			}
			got := res.Matches
			sortMatches(got)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d (%s) %s pass diverges from oracle:\n got %d %v\nwant %d %v",
					qi, q, name, len(got), got, len(want), want)
			}
			_ = pass
		}
	}
	// The generator must actually exercise matching queries, or the
	// property is vacuous.
	if nonEmpty < nQueries/4 {
		t.Fatalf("only %d of %d random queries matched anything — generator drifted", nonEmpty, nQueries)
	}
}
