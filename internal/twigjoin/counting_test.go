package twigjoin

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"kadop/internal/obs/cost"
	"kadop/internal/pattern"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/xmltree"
)

// chooser draws the random shapes below: a *rand.Rand in the seeded
// tests, the fuzzer's bytes in FuzzJoin.
type chooser interface{ Intn(n int) int }

// byteChooser reads one choice per byte and answers 0 once the bytes
// run out, so every input builds a finite document and query.
type byteChooser struct {
	b []byte
	i int
}

func (c *byteChooser) Intn(n int) int {
	if c.i >= len(c.b) {
		return 0
	}
	v := int(c.b[c.i]) % n
	c.i++
	return v
}

var (
	joinLabels = []string{"a", "b", "c"}
	joinWords  = []string{"x", "y"}
)

// genDoc builds a document over three labels and two words: deep
// chains of repeated labels, so `//a//a` and `/` under `//` have many
// overlapping witnesses, and words on inner elements as well as leaves.
func genDoc(ch chooser) string {
	budget := 40
	var sb strings.Builder
	var build func(depth int)
	build = func(depth int) {
		l := joinLabels[ch.Intn(len(joinLabels))]
		fmt.Fprintf(&sb, "<%s>", l)
		if ch.Intn(3) == 0 {
			fmt.Fprintf(&sb, " %s ", joinWords[ch.Intn(len(joinWords))])
		}
		if depth < 7 {
			for k := ch.Intn(4); k > 0 && budget > 0; k-- {
				budget--
				build(depth + 1)
			}
		}
		if ch.Intn(4) == 0 {
			fmt.Fprintf(&sb, " %s ", joinWords[ch.Intn(len(joinWords))])
		}
		fmt.Fprintf(&sb, "</%s>", l)
	}
	build(0)
	return sb.String()
}

// genQuery builds a twig of one to four label nodes joined by `/` and
// `//` edges, with contains predicates (descendant-or-self word leaves)
// on some of them.
func genQuery(ch chooser) *pattern.Query {
	label := func() xmltree.Term { return xmltree.LabelTerm(joinLabels[ch.Intn(len(joinLabels))]) }
	root := &pattern.Node{Term: label(), Axis: pattern.Descendant}
	elems := []*pattern.Node{root}
	for size := 1 + ch.Intn(4); len(elems) < size; {
		par := elems[ch.Intn(len(elems))]
		n := &pattern.Node{Term: label(), Axis: pattern.Axis(ch.Intn(2))}
		par.Children = append(par.Children, n)
		elems = append(elems, n)
	}
	for _, n := range elems {
		if ch.Intn(4) == 0 {
			w := xmltree.WordTerm(joinWords[ch.Intn(len(joinWords))])
			n.Children = append(n.Children, &pattern.Node{Term: w, Axis: pattern.DescendantOrSelf})
		}
	}
	return &pattern.Query{Root: root}
}

// genCorpus indexes one to four generated documents.
func genCorpus(t *testing.T, ch chooser) *corpus {
	c := newCorpus()
	for d, n := 0, 1+ch.Intn(4); d < n; d++ {
		c.add(t, sid.DocKey{Peer: sid.PeerID(ch.Intn(3)), Doc: sid.DocID(d)}, genDoc(ch))
	}
	return c
}

// agree runs q three ways — the counting join, Run, and the nested-loop
// reference — and fails unless all three name the same documents with
// the same tuples and leave identical cost.Counters.
func agree(t *testing.T, c *corpus, q *pattern.Query) {
	t.Helper()
	ctx := context.Background()
	var counted, enumerated, reference cost.Counters

	var docs []sid.DocKey
	var tuples []int64
	if err := Docs(cost.NewContext(ctx, &counted), q, c.streams(q), func(d sid.DocKey, n int64) error {
		docs = append(docs, d)
		tuples = append(tuples, n)
		return nil
	}); err != nil {
		t.Fatalf("%s: Docs: %v", q, err)
	}
	var got, want []Match
	if err := RunContext(cost.NewContext(ctx, &enumerated), q, c.streams(q), func(m Match) error {
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatalf("%s: RunContext: %v", q, err)
	}
	if err := refRun(cost.NewContext(ctx, &reference), q, c.streams(q), func(m Match) error {
		want = append(want, m)
		return nil
	}); err != nil {
		t.Fatalf("%s: reference: %v", q, err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Run's tuples differ from the reference:\n got %v\nwant %v", q, got, want)
	}
	var wantDocs []sid.DocKey
	var wantTuples []int64
	for _, m := range want {
		if n := len(wantDocs); n > 0 && wantDocs[n-1] == m.Doc {
			wantTuples[n-1]++
			continue
		}
		wantDocs = append(wantDocs, m.Doc)
		wantTuples = append(wantTuples, 1)
	}
	if !reflect.DeepEqual(docs, wantDocs) || !reflect.DeepEqual(tuples, wantTuples) {
		t.Fatalf("%s: counting join gave docs %v tuples %v, enumeration docs %v tuples %v", q, docs, tuples, wantDocs, wantTuples)
	}
	if n := len(c.groundTruth(q)); n != len(want) {
		t.Fatalf("%s: %d tuples, direct evaluation finds %d", q, len(want), n)
	}
	cs, es, rs := counted.Snapshot(), enumerated.Snapshot(), reference.Snapshot()
	if cs != rs || es != rs {
		t.Fatalf("%s: counters differ:\n counting  %+v\n Run       %+v\n reference %+v", q, cs, es, rs)
	}
}

func TestCountingJoinAgreesWithEnumeration(t *testing.T) {
	fixed := []string{
		`//a//a`,
		`//a/a`,
		`//a/a[/b]`,
		`//a//a//a`,
		`//a[//b]/a`,
		`//a//b/c`,
		`//a[. contains "x"]`,
		`//a//a[. contains "y"]`,
		`//b[. contains "x"]/a[. contains "x"]`,
	}
	queries := make([]*pattern.Query, len(fixed))
	for i, s := range fixed {
		queries[i] = pattern.MustParse(s)
	}
	rng := rand.New(rand.NewSource(28))
	trials := 2000
	if testing.Short() {
		trials = 200
	}
	for trial := 0; trial < trials; trial++ {
		c := genCorpus(t, rng)
		agree(t, c, genQuery(rng))
		agree(t, c, queries[trial%len(queries)])
	}
}

func TestCountingJoinCountsTuples(t *testing.T) {
	c := newCorpus()
	// Doc 1 is a chain of four a elements, the innermost holding a b
	// and the word x; doc 2 has no a inside an a.
	c.add(t, sid.DocKey{Peer: 1, Doc: 1}, `<a><a><a><a><b>x</b></a></a></a></a>`)
	c.add(t, sid.DocKey{Peer: 1, Doc: 2}, `<a><b/><c><b/></c></a>`)
	for _, tc := range []struct {
		query  string
		tuples map[sid.DocID]int64
	}{
		{`//a//a`, map[sid.DocID]int64{1: 6}},                 // C(4,2)
		{`//a/a`, map[sid.DocID]int64{1: 3}},                  // adjacent pairs
		{`//a//a//a`, map[sid.DocID]int64{1: 4}},              // C(4,3)
		{`//a//b`, map[sid.DocID]int64{1: 4, 2: 2}},           // every a above b
		{`//a/b`, map[sid.DocID]int64{1: 1, 2: 1}},            // only the direct parents
		{`//a[//a]//b`, map[sid.DocID]int64{1: 3 + 2 + 1}},    // per outer a: the a's below it
		{`//a//b[. contains "x"]`, map[sid.DocID]int64{1: 4}}, // the word on b itself
		{`//a[. contains "x"]`, map[sid.DocID]int64{1: 4}},    // descendant-or-self reaches b's word
		{`//b[. contains "x"]/a`, map[sid.DocID]int64{}},      // no a under b
		{`//a[/a][/b]`, map[sid.DocID]int64{}},                // no a has both an a and a b child
	} {
		q := pattern.MustParse(tc.query)
		got := map[sid.DocID]int64{}
		if err := Docs(context.Background(), q, c.streams(q), func(d sid.DocKey, n int64) error {
			got[d.Doc] = n
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.tuples) {
			t.Errorf("%s: tuples per doc %v, want %v", tc.query, got, tc.tuples)
		}
		agree(t, c, q)
	}
}

// TestDocsAllocatesNothingPerDocument pins that the counting path reuses
// its buffers: once warm, a hundred times more documents cost no more
// allocations.
func TestDocsAllocatesNothingPerDocument(t *testing.T) {
	q := pattern.MustParse(`//article[//title]//author`)
	ctx := cost.NewContext(context.Background(), &cost.Counters{})
	allocs := func(docs int) float64 {
		lists := benchCorpus(docs, 20)
		return testing.AllocsPerRun(20, func() {
			streams := map[*pattern.Node]postings.Stream{}
			for _, n := range q.Nodes() {
				streams[n] = postings.NewSliceStream(lists[n.Term.Key()])
			}
			if err := Docs(ctx, q, streams, func(sid.DocKey, int64) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(5), allocs(500); many != few {
		t.Errorf("Docs allocates %.0f times over 5 documents but %.0f over 500", few, many)
	}
}

// FuzzJoin builds a corpus and a twig from the input bytes and checks
// the counting join and Run against the nested-loop reference.
func FuzzJoin(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x03\x02\x00\x03\x01\x02\x03\x00\x00\x02\x01\x03\x03"))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b := make([]byte, 64+rng.Intn(128))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ch := &byteChooser{b: b}
		c := genCorpus(t, ch)
		agree(t, c, genQuery(ch))
	})
}
