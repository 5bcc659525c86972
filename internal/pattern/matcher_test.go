package pattern

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"kadop/internal/sid"
	"kadop/internal/workload"
	"kadop/internal/xmltree"
)

// oraclePattern converts a query to the independent oracle's pattern
// representation.
func oraclePattern(n *Node) *xmltree.PatternNode {
	on := &xmltree.PatternNode{Term: n.Term}
	switch n.Axis {
	case Child:
		on.Axis = xmltree.PatternChild
	case Descendant:
		on.Axis = xmltree.PatternDescendant
	case DescendantOrSelf:
		on.Axis = xmltree.PatternDescendantOrSelf
	}
	for _, c := range n.Children {
		on.Children = append(on.Children, oraclePattern(c))
	}
	return on
}

// checkMatcher is the three-way check: the Matcher's tuples equal
// MatchDocument's in order and xmltree.MatchPattern's as sets, and
// matching over the document's shared Layout gives the same tuples and
// visits. It returns the number of matches and buf for reuse.
func checkMatcher(t testing.TB, m *Matcher, q *Query, doc *xmltree.Document, buf []sid.SID) (int, []sid.SID) {
	t.Helper()
	laid, laidScanned := m.MatchLayout(nil, NewLayout(doc))
	buf, scanned := m.Match(buf[:0], doc)
	if !slices.Equal(laid, buf) || laidScanned != scanned {
		t.Fatalf("%s over %s: MatchLayout gives %v (%d visits), Match %v (%d visits)", q, xmltree.Serialize(doc), laid, laidScanned, buf, scanned)
	}
	var got [][]sid.SID
	for w := m.Width(); len(buf) > w*len(got); {
		got = append(got, buf[w*len(got):w*(len(got)+1)])
	}
	var want [][]sid.SID
	for _, r := range MatchDocument(q, doc, sid.DocKey{}) {
		want = append(want, r.Elements)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s over %s:\nmatcher   %v\nreference %v", q, xmltree.Serialize(doc), got, want)
	}
	oracle := xmltree.MatchPattern(doc, oraclePattern(q.Root))
	key := func(ts [][]sid.SID) []string {
		out := make([]string, len(ts))
		for i, tu := range ts {
			out[i] = fmt.Sprint(tu)
		}
		slices.Sort(out)
		return out
	}
	if g, o := key(got), key(oracle); !reflect.DeepEqual(g, o) {
		t.Fatalf("%s over %s:\nmatcher %v\noracle  %v", q, xmltree.Serialize(doc), g, o)
	}
	return len(got), buf
}

// TestMatcherAgreesWithReference checks the compiled evaluator against
// both reference evaluators over the DBLP corpus and the query mix the
// benchmark draws from, and over seeded random trees and twigs that
// exercise every axis, wildcards, word predicates and include nodes.
func TestMatcherAgreesWithReference(t *testing.T) {
	t.Run("dblp", func(t *testing.T) {
		docs := workload.DBLP{Seed: 7, Records: 10000}.Documents()
		if raceEnabled || testing.Short() {
			for i := range docs[:len(docs)/8] {
				docs[i] = docs[8*i]
			}
			docs = docs[:len(docs)/8]
		}
		seen := map[string]bool{}
		var queries []string
		for _, s := range workload.QueryMix(7, 4096) {
			if !seen[s] {
				seen[s] = true
				queries = append(queries, s)
			}
		}
		// Four workers over the queries; the reference evaluators dominate.
		const workers = 4
		var matches atomic.Int64
		for w := 0; w < workers; w++ {
			t.Run(fmt.Sprint("worker", w), func(t *testing.T) {
				t.Parallel()
				var buf []sid.SID
				for qi := w; qi < len(queries); qi += workers {
					q := MustParse(queries[qi])
					m := Compile(q)
					for _, d := range docs {
						var n int
						n, buf = checkMatcher(t, m, q, d.Doc, buf)
						matches.Add(int64(n))
					}
				}
			})
		}
		t.Cleanup(func() {
			if matches.Load() == 0 {
				t.Error("the query mix matched nothing")
			}
			t.Logf("%d queries × %d documents: %d matches", len(queries), len(docs), matches.Load())
		})
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(26))
		var buf []sid.SID
		matches := 0
		for trial := 0; trial < 20000; trial++ {
			budget := 1 + rng.Intn(4)
			q := &Query{Root: randomTwig(rng, 0, &budget)}
			m := Compile(q)
			// The same Matcher over two documents: the second reuses the
			// first one's layout buffers.
			for range 2 {
				var n int
				n, buf = checkMatcher(t, m, q, randomDoc(rng), buf)
				matches += n
			}
		}
		t.Logf("%d matches", matches)
	})
}

// TestMatcherAllocations checks that a document adds no allocations
// once the Matcher's layout and the caller's output buffer have grown.
func TestMatcherAllocations(t *testing.T) {
	d, err := xmltree.ParseBytes([]byte(doc1))
	if err != nil {
		t.Fatal(err)
	}
	m := Compile(MustParse(`//dblp[//title]//author[. contains "ullman"]`))
	buf, _ := m.Match(nil, d)
	if len(buf) == 0 {
		t.Fatal("no matches")
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = m.Match(buf[:0], d) }); allocs != 0 {
		t.Errorf("%v allocations per document", allocs)
	}
	l := NewLayout(d)
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = m.MatchLayout(buf[:0], l) }); allocs != 0 {
		t.Errorf("%v allocations per laid-out document", allocs)
	}
}

var (
	randomLabels = []string{"a", "b", "c", xmltree.IncludeLabel}
	randomWords  = []string{"x", "y", "z"}
)

// randomDoc builds a tree of up to about 30 elements over a small
// alphabet, so that labels repeat at every depth.
func randomDoc(rng *rand.Rand) *xmltree.Document {
	b := xmltree.NewBuilder()
	budget := 1 + rng.Intn(30)
	var rec func(depth int)
	rec = func(depth int) {
		budget--
		label := randomLabels[rng.Intn(len(randomLabels)-1)]
		if depth > 0 && rng.Intn(8) == 0 {
			b.Include(fmt.Sprintf("inc%d.xml", rng.Intn(3)))
			return
		}
		b.Open(label)
		if rng.Intn(2) == 0 {
			b.Text(randomWords[rng.Intn(len(randomWords))])
		}
		for budget > 0 && depth < 6 && rng.Intn(3) != 0 {
			rec(depth + 1)
		}
		b.Close()
	}
	rec(0)
	doc, err := b.Document()
	if err != nil {
		panic(err)
	}
	return doc
}

// randomTwig builds a pattern of at most *budget nodes: labels,
// wildcards and words, on all three axes.
func randomTwig(rng *rand.Rand, depth int, budget *int) *Node {
	*budget--
	n := &Node{Axis: Axis(rng.Intn(3))}
	switch r := rng.Intn(10); {
	case r < 2:
		n.Term = xmltree.LabelTerm(Wildcard)
	case r < 4 && depth > 0:
		n.Term = xmltree.WordTerm(randomWords[rng.Intn(len(randomWords))])
		return n
	default:
		n.Term = xmltree.LabelTerm(randomLabels[rng.Intn(len(randomLabels))])
	}
	for *budget > 0 && rng.Intn(3) != 0 {
		n.Children = append(n.Children, randomTwig(rng, depth+1, budget))
	}
	return n
}

// FuzzMatch runs the three-way check on arbitrary query text and
// document bytes. Inputs that do not parse, or whose naive evaluation
// could enumerate more than about a million bindings, are skipped.
func FuzzMatch(f *testing.F) {
	for _, s := range []struct{ q, doc string }{
		{`//article//author[. contains "Ullman"]`, doc1},
		{`//article[//title]//author`, doc1},
		{`/dblp/article/title`, doc1},
		{`//*[contains(.,'xml')]//title`, doc1},
		{`//a//b[//c][. contains "w"]`, `<a><b>w<c/><b><c>w</c></b></b></a>`},
		{`//a/*/a`, `<a><a><a/><b><a/></b></a></a>`},
		{`//{x}`, `<a x="x y">x<b>x</b></a>`},
		{`//r//kadop:include`, `<!DOCTYPE r [<!ENTITY e SYSTEM "e.xml">]><r><s>&e;</s>&e;</r>`},
	} {
		f.Add(s.q, []byte(s.doc))
	}
	f.Fuzz(func(t *testing.T, query string, raw []byte) {
		q, err := Parse(query)
		if err != nil {
			return
		}
		doc, err := xmltree.ParseBytes(raw)
		if err != nil {
			return
		}
		bindings, elements := 1, doc.Elements()
		for range q.Nodes() {
			if bindings *= elements; bindings > 1<<20 {
				return
			}
		}
		checkMatcher(t, Compile(q), q, doc, nil)
	})
}
