package twigjoin

import (
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kadop/internal/obs/cost"
	"kadop/internal/pattern"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/twigjoin/jointest"
)

// genCorpus indexes one to four generated documents.
func genCorpus(t *testing.T, ch jointest.Chooser) *corpus {
	c := newCorpus()
	for d, doc := range jointest.Corpus(ch) {
		c.add(t, sid.DocKey{Peer: sid.PeerID(doc.Peer), Doc: sid.DocID(d)}, doc.XML)
	}
	return c
}

// agree runs q four ways — the counting join, the flat enumerator
// Tuples, Run, and the nested-loop reference — and fails unless all
// four name the same documents with the same tuples and leave identical
// cost.Counters.
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
	var flat cost.Counters
	var flatDocs []sid.DocKey
	var flatTuples []int64
	width := len(q.Nodes())
	tuplesFlat, err := Tuples(cost.NewContext(ctx, &flat), q, c.streams(q), func(d sid.DocKey, ts []sid.Posting) error {
		flatDocs = append(flatDocs, d)
		flatTuples = append(flatTuples, int64(len(ts)/width))
		return nil
	})
	if err != nil {
		t.Fatalf("%s: Tuples: %v", q, err)
	}
	var got, want []Match
	if err := RunContext(cost.NewContext(ctx, &enumerated), q, c.streams(q), func(m Match) error {
		// Run reuses a Match's postings for the next document.
		m.Postings = slices.Clone(m.Postings)
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
	var wantFlat []sid.Posting
	for _, m := range want {
		wantFlat = append(wantFlat, m.Postings...)
	}
	if !reflect.DeepEqual(tuplesFlat, wantFlat) {
		t.Fatalf("%s: Tuples' flat slice differs from the reference:\n got %v\nwant %v", q, tuplesFlat, wantFlat)
	}
	if !reflect.DeepEqual(flatDocs, wantDocs) || !reflect.DeepEqual(flatTuples, wantTuples) {
		t.Fatalf("%s: Tuples yielded docs %v tuples %v, reference docs %v tuples %v", q, flatDocs, flatTuples, wantDocs, wantTuples)
	}
	if n := len(c.groundTruth(q)); n != len(want) {
		t.Fatalf("%s: %d tuples, direct evaluation finds %d", q, len(want), n)
	}
	cs, es, fs, rs := counted.Snapshot(), enumerated.Snapshot(), flat.Snapshot(), reference.Snapshot()
	if cs != rs || es != rs || fs != rs {
		t.Fatalf("%s: counters differ:\n counting  %+v\n Run       %+v\n Tuples    %+v\n reference %+v", q, cs, es, fs, rs)
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
		agree(t, c, jointest.Query(rng))
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

// TestTuplesAllocatesNothingPerTuple pins that enumeration allocates
// only the growth of its one flat slice: a hundred times more documents
// cost at most one more allocation per doubling of that slice.
func TestTuplesAllocatesNothingPerTuple(t *testing.T) {
	q := pattern.MustParse(`//article[//title]//author`)
	ctx := cost.NewContext(context.Background(), &cost.Counters{})
	run := func(docs int) (allocs float64, tuples int) {
		lists := benchCorpus(docs, 20)
		allocs = testing.AllocsPerRun(20, func() {
			streams := map[*pattern.Node]postings.Stream{}
			for _, n := range q.Nodes() {
				streams[n] = postings.NewSliceStream(lists[n.Term.Key()])
			}
			flat, err := Tuples(ctx, q, streams, func(sid.DocKey, []sid.Posting) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			tuples = len(flat) / len(q.Nodes())
		})
		return allocs, tuples
	}
	few, _ := run(5)
	many, tuples := run(500)
	if doublings := float64(bits.Len(uint(tuples * len(q.Nodes())))); many > few+doublings {
		t.Errorf("Tuples allocates %.0f times over 5 documents but %.0f over 500 (%d tuples, at most %.0f doublings)", few, many, tuples, doublings)
	}
}

// TestRunHoldsOneDocument pins that Run reuses one document's buffer:
// a hundred times more documents of the same shape cost it no more
// allocations, where Tuples keeps every tuple.
func TestRunHoldsOneDocument(t *testing.T) {
	q := pattern.MustParse(`//article[//title]//author`)
	ctx := cost.NewContext(context.Background(), &cost.Counters{})
	allocs := func(docs int) float64 {
		lists := benchCorpus(docs, 20)
		return testing.AllocsPerRun(20, func() {
			streams := map[*pattern.Node]postings.Stream{}
			for _, n := range q.Nodes() {
				streams[n] = postings.NewSliceStream(lists[n.Term.Key()])
			}
			if err := RunContext(ctx, q, streams, func(Match) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(5), allocs(500); many != few {
		t.Errorf("Run allocates %.0f times over 5 documents but %.0f over 500", few, many)
	}
}

// FuzzJoin builds a corpus and a twig from the input bytes and checks
// the counting join, Tuples and Run against the nested-loop reference.
func FuzzJoin(f *testing.F) {
	for _, b := range jointest.Seeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ch := jointest.NewBytes(b)
		c := genCorpus(t, ch)
		agree(t, c, jointest.Query(ch))
	})
}
