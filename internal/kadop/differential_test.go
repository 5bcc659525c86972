package kadop

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kadop/internal/dpp"
	"kadop/internal/pattern"
	"kadop/internal/sid"
	"kadop/internal/twigjoin/jointest"
	"kadop/internal/workload"
	"kadop/internal/xmltree"
)

// TestIndexAnswersEqualPhaseTwo is the differential test of answering
// from the index: for every query without a wildcard, the tuples the
// index join returns are those phase two computes when it evaluates
// the query at the document peers over every published document — the
// same tuples in the same order — under the conventional plan, a
// reducer plan and the parallel join. The queries are the benchmark
// mix's templates over DBLP documents, the property test's random
// twigs over its random documents (Child-axis roots, repeated labels,
// contains steps) and FuzzJoin's seed corpus.
func TestIndexAnswersEqualPhaseTwo(t *testing.T) {
	c := newCluster(t, 6, Config{UseDPP: true, DPP: dpp.Options{BlockSize: 16}})
	var docs []string
	for _, d := range (workload.DBLP{Seed: 7, Records: 300}).Documents() {
		docs = append(docs, xmltree.Serialize(d.Doc))
	}
	queries := map[string]bool{}
	for _, s := range workload.QueryMix(7, 64) {
		queries[s] = true
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		docs = append(docs, xmltree.Serialize(genDoc(t, rng)))
	}
	for len(queries) < 64+40 {
		if q := genQuery(rng); !hasWildcard(q) {
			queries[q.String()] = true
		}
	}
	for _, seed := range jointest.Seeds() {
		ch := jointest.NewBytes(seed)
		for _, d := range jointest.Corpus(ch) {
			docs = append(docs, d.XML)
		}
		queries[jointest.Query(ch).String()] = true
	}
	for _, s := range []string{`/a/b`, `/a//a[. contains "x"]`, `//a//a//a`, `//c[/c]/c`} {
		queries[s] = true
	}
	publishAll(t, c, docs)
	var all []sid.DocKey
	for _, p := range c.peers {
		for id := range p.docs {
			all = append(all, sid.DocKey{Peer: p.ID(), Doc: id})
		}
	}

	ctx := context.Background()
	querier := c.peers[len(c.peers)-1]
	answered, tuples := 0, 0
	for s := range queries {
		// Phase two parses the query text again: normalising through it
		// gives both routes the same node pre-order.
		q := pattern.MustParse(pattern.MustParse(s).String())
		want, failed, err := querier.secondPhase(ctx, q, all)
		if err != nil || failed > 0 {
			t.Fatalf("%s: phase two over every document: %d failed peers, %v", q, failed, err)
		}
		if len(want) > 0 {
			answered++
			tuples += len(want)
		}
		for _, opts := range []QueryOptions{{}, {Strategy: BloomReducer}, {ParallelJoin: 3}} {
			name := fmt.Sprintf("%s %+v", q, opts)
			res, err := querier.Query(q, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Matches) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(res.Matches, want) {
				t.Fatalf("%s: the index join answered %d tuples, phase two %d:\n index %v\nphase2 %v",
					name, len(res.Matches), len(want), res.Matches, want)
			}
			if res.IndexMatches != len(res.Matches) || res.Cost.DocsEvaluated != 0 || res.Incomplete {
				t.Fatalf("%s: %d index matches for %d answers, %d documents evaluated, incomplete %v",
					name, res.IndexMatches, len(res.Matches), res.Cost.DocsEvaluated, res.Incomplete)
			}
		}
	}
	t.Logf("%d documents, %d queries, %d with answers, %d tuples", len(all), len(queries), answered, tuples)
	// The comparison means something only if queries have answers.
	if answered < len(queries)/3 {
		t.Fatalf("only %d of %d queries have answers: the corpus drifted", answered, len(queries))
	}
}

func hasWildcard(q *pattern.Query) bool {
	for _, n := range q.Nodes() {
		if n.IsWildcard() {
			return true
		}
	}
	return false
}

// BenchmarkQueryRoutes times full queries on both routes from one of
// eight peers holding 500 DBLP records: an exact query, answered by the
// index join and confirmed by its documents' peers, and relaxed ones,
// which run phase two.
//
//	go test ./internal/kadop -run '^$' -bench QueryRoutes -benchmem
func BenchmarkQueryRoutes(b *testing.B) {
	c := newCluster(b, 8, Config{})
	var docs []string
	for _, d := range (workload.DBLP{Seed: 7, Records: 500}).Documents() {
		docs = append(docs, xmltree.Serialize(d.Doc))
	}
	publishAll(b, c, docs)
	for _, s := range []string{`//article[//year]//author`, `//article[//year]//*`, `//*//author[. contains "author0042"]`} {
		q := pattern.MustParse(s)
		b.Run(s, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := c.peers[7].Query(q, QueryOptions{})
				if err != nil || len(res.Matches) == 0 {
					b.Fatalf("%d answers (%v)", len(res.Matches), err)
				}
			}
		})
	}
}
